//! Seeded input generators. Every input a workload feeds the program — the
//! CM Fortran source, the query list, the key population, the sample values
//! and the per-leaf clock skews — is a pure function of the seed, drawn
//! from this module's own PRNG so that a change to the program under test
//! can never change its inputs.

use std::sync::Arc;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` separates independent
    /// draws (program text, queries, values) made from the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Shape of the generated CM Fortran program.
pub const SUBROUTINES: usize = 6;
/// Elements per array (1-D arrays, and 32 × 32 for the 2-D pair).
pub const ELEMS: usize = 1024;
/// Nodes of the simulated machine.
pub const NODES: usize = 8;
/// The generated program's name; its module is `bench.fcm`.
pub const PROGRAM: &str = "BENCH";
/// Arrays per subroutine: two 1-D, then the 32 × 32 pair.
pub const ARRAYS: [&str; 4] = ["A", "B", "M", "T"];

/// The arrays of subroutine `s` (1-based), in [`ARRAYS`] order.
pub fn arrays_of(s: usize) -> [String; 4] {
    ARRAYS.map(|a| format!("{a}{s:02}"))
}

/// A CM Fortran program of [`SUBROUTINES`] subroutines over block-distributed
/// arrays. Every subroutine carries one statement from each cost class —
/// element-wise work, a reduction, a shift, a transpose, a scan, a sort and
/// an I/O statement — on fixed arrays in a fixed order. The seed places the
/// reduction and shift intrinsics, and picks the constants, the shift
/// distances and the call order; it leaves the program's cost profile and
/// the shape of the consultant's search alone (statement order would move
/// both), so run-to-run spread across seeds is the machine's own noise.
pub fn program(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    // Which intrinsic stands for the reduction and the shift is dealt out
    // in fixed proportions, so only its placement depends on the seed.
    let mut reductions: Vec<&str> = ["SUM", "MAXVAL", "MINVAL"]
        .iter()
        .copied()
        .cycle()
        .take(SUBROUTINES)
        .collect();
    let mut shifts: Vec<&str> = ["CSHIFT", "EOSHIFT"]
        .iter()
        .copied()
        .cycle()
        .take(SUBROUTINES)
        .collect();
    rng.shuffle(&mut reductions);
    rng.shuffle(&mut shifts);
    let mut src = format!("PROGRAM {PROGRAM}\n");
    for s in 1..=SUBROUTINES {
        let [a, b, m, t] = arrays_of(s);
        src += &format!("SUBROUTINE S{s:02}\n");
        src += &format!("REAL {a}({ELEMS}), {b}({ELEMS}), {m}(32, 32), {t}(32, 32)\n");
        for arr in [&a, &b, &m, &t] {
            src += &format!("DIST {arr} BLOCK\n");
        }
        let k = 1 + rng.below(7) as i64;
        let shift = if rng.below(2) == 0 { k } else { -k };
        let body = [
            format!("{b} = {a} * 0.{} + {}.0", 1 + rng.below(9), rng.below(9)),
            format!("R{s:02} = {}({a})", reductions[s - 1]),
            format!("{b} = {}({b}, {shift})", shifts[s - 1]),
            format!("{t} = TRANSPOSE({m}) + {}.5", rng.below(4)),
            format!("{a} = SCAN_ADD({a})"),
            format!("{b} = SORT({b})"),
            format!("WRITE {b}"),
        ];
        for stmt in body {
            src += &stmt;
            src.push('\n');
        }
        src += "ENDSUB\n";
    }
    let mut calls: Vec<usize> = (1..=SUBROUTINES).collect();
    rng.shuffle(&mut calls);
    for s in calls {
        src += &format!("CALL S{s:02}\n");
    }
    src += "END\n";
    src
}

/// The six hypothesis time metrics the consultant tests; queries and the
/// measurement-cache reference use the same batch.
pub fn hypothesis_metrics() -> Vec<String> {
    paradyn_tool::consultant::HYPOTHESES
        .iter()
        .map(|h| h.metric.to_string())
        .collect()
}

/// A where-axis selection, kept symbolic so the query list is a pure
/// function of the seed; [`QueryFocus::focus`] builds the tool's `Focus`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryFocus {
    Whole,
    Array {
        sub: usize,
        array: usize,
    },
    Node(usize),
    Subregion {
        sub: usize,
        array: usize,
        node: usize,
    },
}

impl QueryFocus {
    pub fn focus(&self) -> pdmap::hierarchy::Focus {
        use pdmap::hierarchy::Focus;
        match *self {
            QueryFocus::Whole => Focus::whole_program(),
            QueryFocus::Array { sub, array } => {
                Focus::whole_program().select("CMFarrays", &array_path(sub, array))
            }
            QueryFocus::Node(k) => Focus::whole_program().select("Machine", &format!("/node#{k}")),
            QueryFocus::Subregion { sub, array, node } => Focus::whole_program().select(
                "CMFarrays",
                &format!("{}/sub#{node}", array_path(sub, array)),
            ),
        }
    }
}

/// Path of array `array` (index into [`arrays_of`]) of subroutine `sub`.
pub fn array_path(sub: usize, array: usize) -> String {
    let name = &arrays_of(sub)[array];
    format!("/{}.fcm/S{sub:02}/{name}", PROGRAM.to_lowercase())
}

/// `n` single-metric queries spread across the where axis, down to
/// per-node array subregions. The mix is stratified — every eight queries
/// ask one whole-program, two array, two node and three subregion
/// questions, cycling through the six metrics — and the seed picks the
/// subroutine, array and node, so every seed asks equally costly
/// questions. Subregions are drawn from each subroutine's sort target `B`,
/// whose sort time the search always refines, so every query lands on a
/// focus the search measured.
pub fn queries(seed: u64, n: usize) -> Vec<(String, QueryFocus)> {
    let mut rng = Rng::new(seed, 2);
    let metrics = hypothesis_metrics();
    (0..n)
        .map(|i| {
            let sub = 1 + rng.below(SUBROUTINES as u64) as usize;
            let array = rng.below(ARRAYS.len() as u64) as usize;
            let node = rng.below(NODES as u64) as usize;
            let focus = match i % 8 {
                0 => QueryFocus::Whole,
                1 | 2 => QueryFocus::Array { sub, array },
                3 | 4 => QueryFocus::Node(node),
                _ => QueryFocus::Subregion {
                    sub,
                    array: 1,
                    node,
                },
            };
            (metrics[i % metrics.len()].clone(), focus)
        })
        .collect()
}

/// One generated sample: key index into the population, leaf-clock wall
/// stamp, value. Values are multiples of 1/4 below 1024, so per-key sums
/// are exact in `f64` whatever order the tool adds them in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub key: u32,
    pub wall: u64,
    pub value: f64,
}

/// A `(metric, focus)` sample key.
pub type Key = (Arc<str>, Arc<str>);

/// The `(metric, focus)` key population: the first `metrics` catalogue
/// metrics, in an order the seed draws, × `foci` per-node array
/// subregions the seed draws. The metric names themselves are fixed: the
/// tool groups samples by comparing key strings, so the share of names of
/// equal length sets the grouping cost, and a seeded choice of names moved
/// `relay_wide`'s landing window by up to 22% between seeds on a 2-vCPU
/// host.
pub fn keys(seed: u64, metrics: usize, foci: usize) -> Vec<Key> {
    let mut rng = Rng::new(seed, 3);
    assert!(
        metrics <= CATALOGUE_METRICS.len(),
        "only {} catalogue metrics",
        CATALOGUE_METRICS.len()
    );
    let mut names: Vec<&str> = CATALOGUE_METRICS[..metrics].to_vec();
    rng.shuffle(&mut names);
    let mut regions: Vec<String> = (1..=SUBROUTINES)
        .flat_map(|s| (0..ARRAYS.len()).flat_map(move |a| (0..NODES).map(move |k| (s, a, k))))
        .map(|(s, a, k)| format!("/CMFarrays{}/sub#{k}", array_path(s, a)))
        .collect();
    rng.shuffle(&mut regions);
    assert!(foci <= regions.len(), "only {} subregions", regions.len());
    let metrics: Vec<Arc<str>> = names.iter().map(|&m| Arc::from(m)).collect();
    let foci: Vec<Arc<str>> = regions[..foci]
        .iter()
        .map(|f| Arc::from(f.as_str()))
        .collect();
    metrics
        .iter()
        .flat_map(|m| foci.iter().map(move |f| (m.clone(), f.clone())))
        .collect()
}

/// Figure 9 metric names the key population draws from.
const CATALOGUE_METRICS: [&str; 20] = [
    "Computation Time",
    "Point-to-Point Time",
    "Broadcast Time",
    "Reduction Time",
    "Sort Time",
    "File I/O Time",
    "Idle Time",
    "Scan Time",
    "Transpose Time",
    "Shift Time",
    "Rotation Time",
    "Summations",
    "MAXVAL Count",
    "MINVAL Count",
    "Broadcasts",
    "Point-to-Point Operations",
    "Reductions",
    "Sorts",
    "Scans",
    "File I/O Operations",
];

/// Per-leaf clock skew in ±50 ms, drawn by the seed.
pub fn skews(seed: u64, leaves: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed, 4);
    (0..leaves)
        .map(|_| rng.below(100_000_001) as i64 - 50_000_000)
        .collect()
}

/// `n` rows for leaf `leaf` over `keys` keys: keys in a seeded order,
/// walls advancing 1–4 µs per sample on the leaf's synthetic clock
/// (`base + skew`), values seeded.
pub fn rows(seed: u64, leaf: usize, n: usize, keys: usize, base: u64, skew: i64) -> Vec<Row> {
    let mut rng = Rng::new(seed, 16 + leaf as u64);
    let mut t = (base as i64 + skew) as u64;
    (0..n)
        .map(|_| {
            t += 1_000 + rng.below(3_000);
            Row {
                key: rng.below(keys as u64) as u32,
                wall: t,
                value: rng.below(4096) as f64 * 0.25,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(program(7), program(7));
        assert_ne!(program(7), program(8));
        assert_eq!(queries(7, 50), queries(7, 50));
        assert_ne!(queries(7, 50), queries(8, 50));
        assert_eq!(keys(7, 6, 8), keys(7, 6, 8));
        assert_ne!(keys(7, 6, 8), keys(8, 6, 8));
        assert_eq!(skews(7, 4), skews(7, 4));
        assert_eq!(rows(7, 1, 100, 48, 10, -5), rows(7, 1, 100, 48, 10, -5));
        assert_ne!(rows(7, 1, 100, 48, 10, -5), rows(7, 2, 100, 48, 10, -5));
    }

    #[test]
    fn generated_program_compiles_for_every_seed_tried() {
        for seed in 0..8 {
            let ns = pdmap::model::Namespace::new();
            cmf_lang::compile(&program(seed), &ns, &Default::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn key_population_has_the_requested_size_and_no_repeats() {
        let k = keys(3, 16, 128);
        assert_eq!(k.len(), 2048);
        let distinct: std::collections::HashSet<_> = k.iter().collect();
        assert_eq!(distinct.len(), 2048);
    }

    #[test]
    fn key_population_names_the_same_metrics_for_every_seed() {
        let names = |seed| {
            let mut m: Vec<_> = keys(seed, 16, 128).into_iter().map(|(m, _)| m).collect();
            m.sort();
            m.dedup();
            m
        };
        assert_eq!(names(3).len(), 16);
        assert_eq!(names(3), names(4));
        assert_ne!(keys(3, 16, 128), keys(4, 16, 128));
    }
}
