//! Fixture: a figure driver whose file-rule finding carries an inline
//! waiver.

pub fn fig1(cfg: SimConfig) -> SimResult {
    run(cfg)
}

// lint: allow(D5) -- the row builder mirrors the figure's eight table columns one to one
#[allow(clippy::too_many_arguments)]
pub fn fig2_row(a: u64, b: u64, c: u64, d: u64, e: u64, f: u64, g: u64, h: u64) -> Row {
    Row::new([a, b, c, d, e, f, g, h])
}
