//! The Performance Consultant (§5): automated why/where bottleneck search
//! over the mapped metrics.
//!
//! ```sh
//! cargo run --example consultant
//! ```

use paradyn_tool::consultant::{render, search_parallel, ConsultantConfig};
use paradyn_tool::tool::Paradyn;

/// A program whose time goes into communication: repeated global sorts and
/// a transpose dwarf the element-wise work.
const SRC: &str = "\
PROGRAM SLOWPOKE
REAL A(512), B(512), M(32, 32), T(32, 32)
A = 1.0
B = SORT(A)
B = SORT(B)
M = 2.0
T = TRANSPOSE(M)
A = CSHIFT(B, 5)
END
";

fn main() {
    let mut tool = Paradyn::new(cmrts_sim::MachineConfig {
        nodes: 8,
        ..cmrts_sim::MachineConfig::default()
    });
    tool.load_source(SRC).unwrap();

    let config = ConsultantConfig {
        threshold: 0.10,
        max_depth: 1,
    };
    println!(
        "searching (threshold {:.0}%)...\n",
        config.threshold * 100.0
    );
    let results = search_parallel(&tool, &config);
    print!("{}", render(&results));
    let st = tool.measurement_cache_stats();
    println!(
        "\nmeasurement cache: {} hits / {} misses ({} machine runs for {} experiments)",
        st.hits,
        st.misses,
        st.runs,
        st.hits + st.misses
    );

    // Summarise the confirmed bottlenecks; undecided hypotheses (possible
    // only over a degraded fleet) are listed apart, never as "confirmed".
    let confirmed: Vec<&str> = results
        .iter()
        .filter(|r| r.verdict.is_true())
        .map(|r| r.hypothesis.as_str())
        .collect();
    println!("\nconfirmed hypotheses: {confirmed:?}");
    let undecided: Vec<&str> = results
        .iter()
        .filter(|r| !r.verdict.is_decided())
        .map(|r| r.hypothesis.as_str())
        .collect();
    if !undecided.is_empty() {
        println!("undecided (insufficient coverage): {undecided:?}");
    }
}
