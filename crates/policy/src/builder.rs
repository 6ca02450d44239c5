//! Policy construction from a serialisable description.
//!
//! Experiments are configured with a [`PolicyKind`] value; the simulator
//! turns it into a live policy with [`build_policy`], feeding in the
//! machine-derived parameters ([`PolicyEnv`]) that MFLUSH's operational
//! environment needs.

use crate::adts::AdtsPolicy;
use crate::dcra::DcraPolicy;
use crate::mflush::{McRegConfig, MflushConfig, MflushPolicy};
use crate::priority::{Order, PriorityPolicy};
use crate::trigger::{Detect, HillClimb, LoadMissPredictor, Respond, TriggerPolicy};
use crate::types::FetchPolicy;

/// Which fetch policy to run (one per SMT core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// ICOUNT baseline.
    Icount,
    /// Speculative FLUSH with the given delay-after-issue trigger
    /// (paper FL-SX / FLUSH-SX).
    FlushSpec(u64),
    /// Non-speculative FLUSH (paper FL-NS).
    FlushNonSpec,
    /// Speculative STALL.
    StallSpec(u64),
    /// Non-speculative STALL.
    StallNonSpec,
    /// MFLUSH with paper defaults derived from the machine.
    Mflush,
    /// MFLUSH with explicit knobs (ablations).
    MflushCustom {
        mcreg_history: usize,
        mcreg_reducer: crate::mflush::McRegReducer,
        preventive: bool,
        mt_enabled: bool,
    },
    /// BRCOUNT (related work; extension).
    Brcount,
    /// L1DMISSCOUNT (related work; extension).
    L1dMissCount,
    /// ADTS adaptive meta-policy (related work; extension).
    Adts,
    /// Round-robin fetch (ISCA'96 baseline; extension).
    RoundRobin,
    /// DCRA-style dynamic resource allocation (MICRO'04, the paper's
    /// reference \[3\]; extension).
    Dcra,
    /// FLUSH with an online hill-climbed trigger (extension motivated by
    /// Fig. 5's workload-dependent best trigger).
    FlushAdaptive,
    /// FLUSH with a front-end load-miss predictor — the fast/unreliable
    /// end of the paper's Detection-Moment spectrum (§3).
    FlushMissPredict,
}

impl PolicyKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Icount => "ICOUNT".into(),
            PolicyKind::FlushSpec(x) => format!("FLUSH-S{x}"),
            PolicyKind::FlushNonSpec => "FLUSH-NS".into(),
            PolicyKind::StallSpec(x) => format!("STALL-S{x}"),
            PolicyKind::StallNonSpec => "STALL-NS".into(),
            PolicyKind::Mflush => "MFLUSH".into(),
            PolicyKind::MflushCustom { .. } => "MFLUSH*".into(),
            PolicyKind::Brcount => "BRCOUNT".into(),
            PolicyKind::L1dMissCount => "L1DMISSCOUNT".into(),
            PolicyKind::Adts => "ADTS".into(),
            PolicyKind::RoundRobin => "RR".into(),
            PolicyKind::Dcra => "DCRA".into(),
            PolicyKind::FlushAdaptive => "FLUSH-ADAPT".into(),
            PolicyKind::FlushMissPredict => "FLUSH-LMP".into(),
        }
    }

    /// Parse a CLI/request policy name (case-insensitive): any of the
    /// [`Self::SUGGESTED_NAMES`], or `flush-sNN` / `stall-sNN` for any
    /// trigger. Returns `None` for anything else (callers render
    /// did-you-mean hints). `MflushCustom` and `FlushMissPredict` are
    /// programmatic-only.
    pub fn parse_name(s: &str) -> Option<PolicyKind> {
        let s = s.to_ascii_lowercase();
        let listed = POLICY_NAMES
            .iter()
            .find(|(_, names)| names.contains(&s.as_str()));
        if let Some((kind, _)) = listed {
            Some(*kind)
        } else if let Some(x) = s.strip_prefix("flush-s") {
            Some(PolicyKind::FlushSpec(x.parse().ok()?))
        } else if let Some(x) = s.strip_prefix("stall-s") {
            Some(PolicyKind::StallSpec(x.parse().ok()?))
        } else {
            None
        }
    }

    /// Every spelling of every listed policy, aliases included, for
    /// "did you mean" suggestions. Shared by the CLI and the serve
    /// layer's request validation.
    pub const SUGGESTED_NAMES: [&'static str; 16] = {
        let mut out = [""; 16];
        let (mut row, mut n) = (0, 0);
        while row < POLICY_NAMES.len() {
            let names = POLICY_NAMES[row].1;
            let mut i = 0;
            while i < names.len() {
                out[n] = names[i];
                n += 1;
                i += 1;
            }
            row += 1;
        }
        assert!(n == out.len(), "SUGGESTED_NAMES must hold every spelling");
        out
    };

    /// The policies `smtsim policies` lists, in order.
    pub fn listed() -> impl Iterator<Item = PolicyKind> {
        POLICY_NAMES.iter().map(|(kind, _)| *kind)
    }

    /// The four policies of the paper's Fig. 8 evaluation.
    pub fn fig8_set() -> [PolicyKind; 4] {
        [
            PolicyKind::Icount,
            PolicyKind::FlushSpec(30),
            PolicyKind::FlushSpec(100),
            PolicyKind::Mflush,
        ]
    }
}

/// The spellable policies, in `smtsim policies` order, each with its
/// accepted names (first the one its label lowercases to, then
/// aliases). Concrete triggers stand in for the `-sNN` families.
const POLICY_NAMES: [(PolicyKind, &[&str]); 13] = [
    (PolicyKind::Icount, &["icount"]),
    (PolicyKind::RoundRobin, &["rr", "roundrobin"]),
    (PolicyKind::Brcount, &["brcount"]),
    (PolicyKind::L1dMissCount, &["l1dmisscount", "misscount"]),
    (PolicyKind::Adts, &["adts"]),
    (PolicyKind::Dcra, &["dcra"]),
    (PolicyKind::StallSpec(30), &["stall-s30"]),
    (PolicyKind::StallNonSpec, &["stall-ns"]),
    (PolicyKind::FlushSpec(30), &["flush-s30"]),
    (PolicyKind::FlushSpec(100), &["flush-s100"]),
    (PolicyKind::FlushNonSpec, &["flush-ns"]),
    (PolicyKind::FlushAdaptive, &["flush-adapt", "adaptive"]),
    (PolicyKind::Mflush, &["mflush"]),
];

/// Machine parameters a policy may need (from the memory configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyEnv {
    /// Nominal L1-miss/L2-hit latency (MIN).
    pub min_latency: u64,
    /// Nominal L2-miss latency (MAX).
    pub max_latency: u64,
    /// L1↔L2 bus transit.
    pub bus_delay: u64,
    /// L2 bank occupancy.
    pub bank_delay: u64,
    /// Cores sharing the L2.
    pub num_cores: u32,
    /// L2 banks.
    pub num_banks: u32,
    /// Entries per shared issue queue (DCRA's entitlement base).
    pub shared_queue_entries: u32,
}

impl PolicyEnv {
    /// The paper's Fig. 1 machine with `num_cores` cores.
    pub fn paper(num_cores: u32) -> Self {
        PolicyEnv {
            min_latency: 22,
            max_latency: 272,
            bus_delay: 4,
            bank_delay: 15,
            num_cores,
            num_banks: 4,
            shared_queue_entries: 64,
        }
    }

    fn mflush_config(&self) -> MflushConfig {
        MflushConfig {
            min: self.min_latency,
            max: self.max_latency,
            bus_delay: self.bus_delay,
            bank_delay: self.bank_delay,
            num_cores: self.num_cores,
            num_banks: self.num_banks,
            mcreg: McRegConfig::default(),
            preventive: true,
            mt_enabled: true,
        }
    }
}

/// Instantiate a policy for one core.
pub fn build_policy(kind: PolicyKind, env: &PolicyEnv) -> Box<dyn FetchPolicy> {
    let priority = |order| -> Box<dyn FetchPolicy> { Box::new(PriorityPolicy::new(order)) };
    let trigger =
        |detect, respond| -> Box<dyn FetchPolicy> { Box::new(TriggerPolicy::new(detect, respond)) };
    match kind {
        PolicyKind::Icount => priority(Order::Icount),
        PolicyKind::Brcount => priority(Order::Brcount),
        PolicyKind::L1dMissCount => priority(Order::L1dMissCount),
        PolicyKind::RoundRobin => priority(Order::RoundRobin),
        PolicyKind::FlushSpec(x) => trigger(Detect::DelayAfterIssue(x), Respond::Flush),
        PolicyKind::FlushNonSpec => trigger(Detect::OnL2Miss, Respond::Flush),
        PolicyKind::StallSpec(x) => trigger(Detect::DelayAfterIssue(x), Respond::Stall),
        PolicyKind::StallNonSpec => trigger(Detect::OnL2Miss, Respond::Stall),
        PolicyKind::FlushAdaptive => trigger(
            Detect::HillClimbed(HillClimb::new(60, 30, 150, 10, 8192)),
            Respond::Flush,
        ),
        PolicyKind::FlushMissPredict => trigger(
            Detect::Predicted(LoadMissPredictor::new(1024)),
            Respond::Flush,
        ),
        PolicyKind::Mflush => Box::new(MflushPolicy::new(env.mflush_config())),
        PolicyKind::MflushCustom {
            mcreg_history,
            mcreg_reducer,
            preventive,
            mt_enabled,
        } => {
            let mut cfg = env.mflush_config();
            cfg.mcreg = McRegConfig {
                history: mcreg_history,
                reducer: mcreg_reducer,
            };
            cfg.preventive = preventive;
            cfg.mt_enabled = mt_enabled;
            Box::new(MflushPolicy::new(cfg))
        }
        PolicyKind::Adts => Box::new(AdtsPolicy::new(4096)),
        PolicyKind::Dcra => Box::new(DcraPolicy::new(env.shared_queue_entries)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mflush::McRegReducer;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(PolicyKind::Icount.label(), "ICOUNT");
        assert_eq!(PolicyKind::FlushSpec(30).label(), "FLUSH-S30");
        assert_eq!(PolicyKind::FlushSpec(100).label(), "FLUSH-S100");
        assert_eq!(PolicyKind::FlushNonSpec.label(), "FLUSH-NS");
        assert_eq!(PolicyKind::Mflush.label(), "MFLUSH");
    }

    #[test]
    fn built_policies_report_their_names() {
        let env = PolicyEnv::paper(4);
        for kind in [
            PolicyKind::Icount,
            PolicyKind::FlushSpec(50),
            PolicyKind::FlushNonSpec,
            PolicyKind::StallSpec(30),
            PolicyKind::StallNonSpec,
            PolicyKind::Mflush,
            PolicyKind::Brcount,
            PolicyKind::L1dMissCount,
            PolicyKind::Adts,
            PolicyKind::RoundRobin,
            PolicyKind::Dcra,
            PolicyKind::FlushAdaptive,
            PolicyKind::FlushMissPredict,
        ] {
            let p = build_policy(kind, &env);
            assert_eq!(p.name(), kind.label(), "{kind:?}");
        }
    }

    #[test]
    fn custom_mflush_applies_knobs() {
        let env = PolicyEnv::paper(4);
        let p = build_policy(
            PolicyKind::MflushCustom {
                mcreg_history: 4,
                mcreg_reducer: McRegReducer::Max,
                preventive: false,
                mt_enabled: false,
            },
            &env,
        );
        assert_eq!(p.name(), "MFLUSH");
    }

    #[test]
    fn every_listed_name_parses_back_to_its_kind() {
        let listed: Vec<PolicyKind> = PolicyKind::listed().collect();
        assert_eq!(listed.len(), 13);
        for kind in listed {
            assert_eq!(
                PolicyKind::parse_name(&kind.label()),
                Some(kind),
                "{kind:?}"
            );
        }
        for (kind, names) in POLICY_NAMES {
            assert_eq!(names[0], kind.label().to_ascii_lowercase());
            for name in names {
                assert_eq!(PolicyKind::parse_name(name), Some(kind), "{name}");
            }
        }
    }

    #[test]
    fn fig8_set_is_the_papers_four() {
        let labels: Vec<String> = PolicyKind::fig8_set().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["ICOUNT", "FLUSH-S30", "FLUSH-S100", "MFLUSH"]);
    }

    #[test]
    fn paper_env_matches_memconfig_identities() {
        let env = PolicyEnv::paper(4);
        assert_eq!(env.min_latency, 22);
        assert_eq!(env.max_latency, 272);
        assert_eq!(env.num_banks, 4);
    }
}
