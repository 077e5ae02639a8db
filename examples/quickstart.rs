//! Quickstart: build the SKAT computational module, solve its coupled
//! steady state, and check it against the paper's design rules.
//!
//! Run with `cargo run --release --example quickstart`.

use rcs_sim::core::{rules, ImmersionModel};
use rcs_sim::obs::Sinks;
use rcs_sim::units::Seconds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The SKAT computational module: 12 boards x 8 Kintex UltraScale
    // FPGAs immersed in SRC dielectric coolant (paper §3).
    let model = ImmersionModel::skat();

    // Coupled steady state: hydraulics -> convection -> heat exchange ->
    // temperature-dependent power, iterated to a fixed point.
    let report = model.solve()?;
    println!("{report}\n");

    // The paper's §3 operating rules.
    println!("design-rule checks:");
    for check in rules::operating_rules(&report) {
        println!(
            "  [{}] {} — {}",
            if check.passed { "pass" } else { "FAIL" },
            check.rule,
            check.detail
        );
    }

    // Cold-start warm-up (the Fig. 2 heat test).
    let warmup = model.warmup(Seconds::hours(1.0), Seconds::new(2.0), Sinks::disabled())?;
    println!(
        "\nwarm-up: chips reach {:.1} (bath {:.1}) and settle in {:.0} s",
        warmup.final_chip_temperature(),
        warmup.final_bath_temperature(),
        warmup.settling_time(0.5).seconds()
    );

    // Reliability context: what the 55 °C junction buys over Taygeta's
    // 72.9 °C air-cooled operation.
    let field_mtbf = report.field_mtbf_hours(96);
    println!(
        "96-FPGA field MTBF at {:.1}: {:.0} h (one chip failure every {:.1} months)",
        report.junction,
        field_mtbf,
        field_mtbf / 730.0
    );
    Ok(())
}
