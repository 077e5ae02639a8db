//! FPGA families spanned by the paper's computational modules.

/// A Xilinx FPGA family, ordered by generation.
///
/// The ordering (`Virtex6 < Virtex7 < …`) follows production chronology,
/// which the paper uses to argue that each family transition adds
/// 10–15 °C of overheat under air cooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub(crate) enum FpgaFamily {
    /// Virtex-6 (40 nm) — the Rigel-2 computational module.
    Virtex6,
    /// Virtex-7 (28 nm) — the Taygeta computational module.
    Virtex7,
    /// Kintex/Virtex UltraScale (20 nm) — the SKAT module.
    UltraScale,
    /// UltraScale+ (16 nm FinFET) — the SKAT+ design.
    UltraScalePlus,
    /// A projected next-generation family the paper calls "UltraScale 2".
    UltraScale2,
}

impl core::fmt::Display for FpgaFamily {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Virtex6 => "Virtex-6",
            Self::Virtex7 => "Virtex-7",
            Self::UltraScale => "UltraScale",
            Self::UltraScalePlus => "UltraScale+",
            Self::UltraScale2 => "UltraScale 2",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_chronologically_ordered() {
        let all = [
            FpgaFamily::Virtex6,
            FpgaFamily::Virtex7,
            FpgaFamily::UltraScale,
            FpgaFamily::UltraScalePlus,
            FpgaFamily::UltraScale2,
        ];
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(FpgaFamily::UltraScalePlus.to_string(), "UltraScale+");
    }
}
