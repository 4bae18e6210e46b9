//! Paper tables: regenerate the paper's evaluation — Tables 1–12 and the
//! Section 6 ranked run — on the tiny experiment configuration. The tables
//! go to stdout, each table's elapsed seconds to stderr.
//!
//! The body lives in [`ltee::examples::paper_tables`] next to the other
//! example bodies.
//!
//! Run with: `cargo run --release --example paper_tables`

fn main() {
    ltee::examples::paper_tables(&mut std::io::stdout().lock(), &mut std::io::stderr().lock())
        .expect("writable stdout and stderr");
}
