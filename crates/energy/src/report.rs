//! Text renderings of the paper's energy tables (Figs. 9 and 10).

use crate::ecf::{accumulated_factor, local_factor, ALL_STAGES, RESOURCE_ENERGY};
use std::fmt::Write;

/// Render Fig. 10 ("Energy Consumption Factor") as a text table.
pub fn ecf_table() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Energy Consumption Factor");
    let _ = writeln!(s, "{:<12} {:>7} {:>12}", "Stage", "Local", "Accumulated");
    for st in ALL_STAGES {
        let _ = writeln!(
            s,
            "{:<12} {:>7.2} {:>12.2}",
            st.name(),
            local_factor(st),
            accumulated_factor(st)
        );
    }
    s
}

/// Render Fig. 9(a) ("energy distribution per resource") as a text table.
pub fn resource_table() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Energy distribution per hardware resource");
    let _ = writeln!(s, "{:<30} {:>6}  Charged stage", "Resource", "%");
    for r in RESOURCE_ENERGY {
        let _ = writeln!(
            s,
            "{:<30} {:>6.1}  {}",
            r.resource,
            r.percent,
            r.stage.name()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecf_table_contains_all_stages_and_values() {
        let t = ecf_table();
        for st in ALL_STAGES {
            assert!(t.contains(st.name()), "missing {}", st.name());
        }
        assert!(t.contains("0.26"), "queue local factor missing");
        assert!(t.contains("1.00"), "commit accumulated factor missing");
    }

    #[test]
    fn resource_table_lists_resources() {
        let t = resource_table();
        assert!(t.contains("Issue queue"));
        assert!(t.contains("Rename table"));
    }
}
