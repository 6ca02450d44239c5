//! Golden-output test for the hand-rolled JSON emitter.
//!
//! A nested structure exercising every tricky corner of the writer —
//! string escaping, float formatting (integral, shortest-roundtrip,
//! non-finite), empty and nested collections, `Option` — is rendered
//! and compared byte-for-byte against a checked-in fixture. If the
//! emitter's output ever changes shape, this fails before any
//! downstream consumer of the JSON does.

use smtsim_core::json::JsonObject;
use smtsim_core::ToJson;

struct Inner {
    name: String,
    values: Vec<f64>,
    flag: bool,
}

impl ToJson for Inner {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("name", &self.name);
        o.field("values", &self.values);
        o.field("flag", &self.flag);
        o.end();
    }
}

struct Outer {
    label: String,
    inner: Inner,
    empty: Vec<u32>,
    counts: [u64; 3],
    present: Option<i64>,
    absent: Option<i64>,
    integral: f64,
    third: f64,
    tiny: f64,
    huge: f64,
    not_a_number: f64,
    negative: i32,
}

impl ToJson for Outer {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("label", &self.label);
        o.field("inner", &self.inner);
        o.field("empty", &self.empty);
        o.field("counts", &self.counts);
        o.field("present", &self.present);
        o.field("absent", &self.absent);
        o.field("integral", &self.integral);
        o.field("third", &self.third);
        o.field("tiny", &self.tiny);
        o.field("huge", &self.huge);
        o.field("not_a_number", &self.not_a_number);
        o.field("negative", &self.negative);
        o.end();
    }
}

#[test]
fn emitter_matches_checked_in_fixture() {
    let v = Outer {
        label: "quote \" backslash \\ newline \n tab \t bell \u{7}".to_string(),
        inner: Inner {
            name: "per-thread μops/cycle".to_string(),
            values: vec![0.5, 2.0, 1.25],
            flag: true,
        },
        empty: Vec::new(),
        counts: [0, 9_007_199_254_740_993, u64::MAX],
        present: Some(-42),
        absent: None,
        integral: 3.0,
        third: 1.0 / 3.0,
        // `Display` never uses scientific notation: these pin the plain
        // decimal expansions (and the `.0` suffix on the integral one).
        tiny: 2.5e-10,
        huge: 1e20,
        not_a_number: f64::NAN,
        negative: -7,
    };
    // `BLESS=1 cargo test -p smtsim-core --test golden_json` rewrites
    // the fixture after an intentional format change (the blessing run
    // still compares against the compiled-in copy; re-run to go green).
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/emitter.golden.json"
            ),
            v.to_json() + "\n",
        )
        .expect("write fixture");
    }
    let golden = include_str!("fixtures/emitter.golden.json");
    assert_eq!(v.to_json(), golden.trim_end());
}

#[test]
fn fixture_roundtrips_through_second_render() {
    // Rendering twice must be byte-stable (no hidden state in the
    // writer) — the determinism bar applied to the emitter itself.
    let v = Inner {
        name: "stable".to_string(),
        values: vec![f64::INFINITY, -0.0],
        flag: false,
    };
    assert_eq!(v.to_json(), v.to_json());
    assert_eq!(
        v.to_json(),
        r#"{"name":"stable","values":[null,-0.0],"flag":false}"#
    );
}
