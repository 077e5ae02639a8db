//! Wall-clock-free work profiles.
//!
//! A profile answers "where does solver effort go?" without ever
//! reading a clock: instrumented code records **work units** — solver
//! iterations × unknowns, Jacobian factorizations, ODE steps,
//! Monte-Carlo trials — under dot-separated phase paths, and this
//! module rolls the resulting counters into a tree with per-node
//! rollups. Work units are deterministic integers, so a profile is part
//! of the golden channel: it rides the ordinary counter namespace
//! (every profile counter is named `profile.<path>`), is merged across
//! parallel shards by the same input-order [`crate::Registry::absorb`]
//! path, and is therefore **bit-identical at every `RCS_THREADS`**.
//!
//! # Examples
//!
//! ```
//! use rcs_obs::{profile, Registry};
//!
//! let obs = Registry::new();
//! obs.work("hydraulics.factorizations", 12);
//! obs.work("hydraulics.iter_unknowns", 60);
//! obs.work("thermal.ode_steps", 3600);
//!
//! let tree = profile::tree(&obs.snapshot());
//! assert_eq!(tree.total, 3672);
//! assert_eq!(tree.child("hydraulics").unwrap().total, 72);
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;

use crate::{Mode, Registry, Snapshot};

/// Counter-name prefix that marks a golden counter as profile work.
pub(crate) const PREFIX: &str = "profile.";

thread_local! {
    /// The `profile.<path>` name of the counter being recorded, rebuilt
    /// in place per call so a warm live [`Registry::work`] allocates
    /// nothing.
    static KEY: RefCell<String> = const { RefCell::new(String::new()) };
}

impl Registry {
    /// Adds `units` of deterministic work under the dot-separated
    /// profile path `path` (recorded as the golden counter
    /// `profile.<path>`). Work units must be pure functions of the
    /// workload — iteration counts, trial counts, step counts — never
    /// wall-clock readings. A clock-only registry just advances its
    /// work clock.
    pub fn work(&self, path: &str, units: u64) {
        match self.mode {
            Mode::Disabled => {}
            Mode::Clock => self.tick(units),
            Mode::Live => KEY.with(|key| {
                // `add` never calls back into `work`, so the borrow is free
                let mut key = key.borrow_mut();
                key.clear();
                key.push_str(PREFIX);
                key.push_str(path);
                self.add(&key, units);
            }),
        }
    }
}

/// One node of a rolled-up profile tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Path segment (the root is named `profile`).
    pub name: String,
    /// Work recorded directly at this path.
    pub own: u64,
    /// `own` plus every descendant's `total`.
    pub total: u64,
    /// Child nodes, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn leaf(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            own: 0,
            total: 0,
            children: Vec::new(),
        }
    }

    /// The direct child named `name`, if present.
    #[must_use]
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.name == name)
    }

    fn insert(&mut self, path: &str, units: u64) {
        match path.split_once('.') {
            None => {
                let child = self.child_mut(path);
                child.own += units;
            }
            Some((head, rest)) => {
                self.child_mut(head).insert(rest, units);
            }
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        // children stay sorted by name so the tree shape never depends
        // on counter insertion order
        match self
            .children
            .binary_search_by(|c| c.name.as_str().cmp(name))
        {
            Ok(i) => &mut self.children[i],
            Err(i) => {
                self.children.insert(i, ProfileNode::leaf(name));
                &mut self.children[i]
            }
        }
    }

    fn rollup(&mut self) -> u64 {
        let mut total = self.own;
        for c in &mut self.children {
            total += c.rollup();
        }
        self.total = total;
        total
    }
}

/// Builds the rolled-up profile tree from the `profile.*` counters of a
/// golden snapshot. Counters outside the `PREFIX` namespace are
/// ignored; an un-instrumented snapshot yields an empty root.
#[must_use]
pub fn tree(snapshot: &Snapshot) -> ProfileNode {
    from_counters(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.as_str(), *value)),
    )
}

/// [`tree`] over any `(name, value)` counter iterator — the form the
/// report tooling uses after parsing a manifest.
#[must_use]
pub(crate) fn from_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> ProfileNode {
    let mut root = ProfileNode::leaf("profile");
    for (name, value) in counters {
        if let Some(path) = name.strip_prefix(PREFIX) {
            if !path.is_empty() {
                root.insert(path, value);
            }
        }
    }
    root.rollup();
    root
}

/// Renders the tree as indented text, one node per line
/// (`name  total` plus `own=` when a node carries both its own work and
/// descendants). Deterministic: children are sorted by name.
#[must_use]
pub(crate) fn render(root: &ProfileNode) -> String {
    let mut out = String::new();
    render_node(root, 0, &mut out);
    out
}

fn render_node(node: &ProfileNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    if node.own != 0 && !node.children.is_empty() {
        let _ = writeln!(
            out,
            "{indent}{}  {} (own={})",
            node.name, node.total, node.own
        );
    } else {
        let _ = writeln!(out, "{indent}{}  {}", node.name, node.total);
    }
    for c in &node.children {
        render_node(c, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_records_prefixed_golden_counters() {
        let obs = Registry::new();
        obs.work("mc.trials", 64);
        obs.work("mc.trials", 36);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("profile.mc.trials"), 100);
    }

    #[test]
    fn tree_rolls_up_totals_bottom_up() {
        let obs = Registry::new();
        obs.work("solve.iterations", 10);
        obs.work("solve.factorizations", 10);
        obs.work("solve", 5); // work on an interior node
        obs.work("ode_steps", 100);
        obs.inc("not.profile"); // ignored
        let root = tree(&obs.snapshot());
        assert_eq!(root.total, 125);
        let solve = root.child("solve").unwrap();
        assert_eq!(solve.own, 5);
        assert_eq!(solve.total, 25);
        assert_eq!(
            root.child("solve")
                .unwrap()
                .child("iterations")
                .unwrap()
                .total,
            10
        );
        assert!(root.child("not").is_none());
    }

    #[test]
    fn tree_shape_is_insertion_order_independent() {
        let a = from_counters([("profile.b.y", 1), ("profile.a", 2), ("profile.b.x", 3)]);
        let b = from_counters([("profile.b.x", 3), ("profile.b.y", 1), ("profile.a", 2)]);
        assert_eq!(a, b);
        assert_eq!(a.children[0].name, "a");
        assert_eq!(a.children[1].name, "b");
    }

    #[test]
    fn disabled_registry_records_no_work() {
        let obs = Registry::disabled();
        obs.work("solve.iterations", 10);
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn render_is_indented_and_deterministic() {
        let root = from_counters([("profile.solve.iters", 10), ("profile.solve", 5)]);
        let text = render(&root);
        assert_eq!(text, "profile  15\n  solve  15 (own=5)\n    iters  10\n");
    }
}
