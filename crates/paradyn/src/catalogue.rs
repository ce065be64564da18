//! The Figure 9 metric catalogue, written in MDL.
//!
//! "We have used MDL to define many new metrics that are specific to CM
//! Fortran and CMRTS" (§6.3). Every row of Figure 9 appears below with the
//! paper's name and description; each can be constrained to parallel
//! arrays, subsections of arrays, parallel assignment statements, nodes, or
//! combinations — the constraint arrives as guard predicates at
//! instantiation time, not here.
//!
//! This is the only hand-written catalogue: it is the paper's own, the
//! metric manager installs it, and its points resolve against the CMRTS
//! registry. The tool's self-measurement levels are generated in
//! [`crate::selfmap`].

use dyninst_sim::mdl::{parse_mdl, MdlFile};

/// The MDL source for the full Figure 9 catalogue (plus file-I/O metrics,
/// which Figure 9's surrounding text mentions as CM Fortran verbs).
pub const FIGURE9_MDL: &str = r#"
// ------------------------- CM Fortran (CMF) level -------------------------

metric computations {
    name "Computations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of computation operations.";
    foreach point "cmrts::compute:entry" { incrCounterArg; }
}

metric computation_time {
    name "Computation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing results.";
    foreach point "cmrts::compute:entry" { startProcessTimer; }
    foreach point "cmrts::compute:exit" { stopProcessTimer; }
}

metric reductions {
    name "Reductions";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array reductions.";
    foreach point "cmrts::reduce:entry" { incrCounter 1; }
}

metric reduction_time {
    name "Reduction Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent reducing arrays.";
    foreach point "cmrts::reduce:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:exit" { stopProcessTimer; }
}

metric summations {
    name "Summations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array summations.";
    foreach point "cmrts::reduce:sum:entry" { incrCounter 1; }
}

metric summation_time {
    name "Summation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent summing arrays.";
    foreach point "cmrts::reduce:sum:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:sum:exit" { stopProcessTimer; }
}

metric maxval_count {
    name "MAXVAL Count";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of MAXVAL reductions.";
    foreach point "cmrts::reduce:max:entry" { incrCounter 1; }
}

metric maxval_time {
    name "MAXVAL Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing MAXVALs.";
    foreach point "cmrts::reduce:max:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:max:exit" { stopProcessTimer; }
}

metric minval_count {
    name "MINVAL Count";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of MINVAL reductions.";
    foreach point "cmrts::reduce:min:entry" { incrCounter 1; }
}

metric minval_time {
    name "MINVAL Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent computing MINVALs.";
    foreach point "cmrts::reduce:min:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:min:exit" { stopProcessTimer; }
}

metric array_transformations {
    name "Array Transformations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array transformations.";
    foreach point "cmrts::xform:entry" { incrCounter 1; }
}

metric transformation_time {
    name "Transformation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent transforming arrays.";
    foreach point "cmrts::xform:entry" { startProcessTimer; }
    foreach point "cmrts::xform:exit" { stopProcessTimer; }
}

metric rotations {
    name "Rotations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array rotations.";
    foreach point "cmrts::rotate:entry" { incrCounter 1; }
}

metric rotation_time {
    name "Rotation Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent of rotations.";
    foreach point "cmrts::rotate:entry" { startProcessTimer; }
    foreach point "cmrts::rotate:exit" { stopProcessTimer; }
}

metric shifts {
    name "Shifts";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array shifts.";
    foreach point "cmrts::shift:entry" { incrCounter 1; }
}

metric shift_time {
    name "Shift Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent shifting arrays.";
    foreach point "cmrts::shift:entry" { startProcessTimer; }
    foreach point "cmrts::shift:exit" { stopProcessTimer; }
}

metric transposes {
    name "Transposes";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array transposes.";
    foreach point "cmrts::transpose:entry" { incrCounter 1; }
}

metric transpose_time {
    name "Transpose Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent transposing arrays.";
    foreach point "cmrts::transpose:entry" { startProcessTimer; }
    foreach point "cmrts::transpose:exit" { stopProcessTimer; }
}

metric scans {
    name "Scans";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array scans.";
    foreach point "cmrts::scan:entry" { incrCounter 1; }
}

metric scan_time {
    name "Scan Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent scanning arrays.";
    foreach point "cmrts::scan:entry" { startProcessTimer; }
    foreach point "cmrts::scan:exit" { stopProcessTimer; }
}

metric sorts {
    name "Sorts";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of array sorts.";
    foreach point "cmrts::sort:entry" { incrCounter 1; }
}

metric sort_time {
    name "Sort Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent sorting arrays.";
    foreach point "cmrts::sort:entry" { startProcessTimer; }
    foreach point "cmrts::sort:exit" { stopProcessTimer; }
}

metric file_io_ops {
    name "File I/O Operations";
    units operations;
    aggregate sum;
    level "CM Fortran";
    description "Count of file read/write operations.";
    foreach point "cmrts::io:entry" { incrCounter 1; }
}

metric file_io_time {
    name "File I/O Time";
    units seconds;
    aggregate sum;
    level "CM Fortran";
    description "Time spent in file I/O.";
    foreach point "cmrts::io:entry" { startWallTimer; }
    foreach point "cmrts::io:exit" { stopWallTimer; }
}

// ------------------------ CM run-time (CMRTS) level ------------------------

metric argument_processing_time {
    name "Argument Processing Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent receiving arguments from CM-5 control processor.";
    foreach point "cmrts::args:entry" { startProcessTimer; }
    foreach point "cmrts::args:exit" { stopProcessTimer; }
}

metric broadcasts {
    name "Broadcasts";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of broadcast operations.";
    foreach point "cmrts::bcast:send" { incrCounter 1; }
}

metric broadcast_time {
    name "Broadcast Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent broadcasting.";
    foreach point "cmrts::bcast:send" { startWallTimer; }
    foreach point "cmrts::bcast:recv" { stopWallTimer; }
}

metric cleanups {
    name "Cleanups";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of resets of node vector units.";
    foreach point "cmrts::cleanup:entry" { incrCounter 1; }
}

metric cleanup_time {
    name "Cleanup Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent resetting node vector units.";
    foreach point "cmrts::cleanup:entry" { startProcessTimer; }
    foreach point "cmrts::cleanup:exit" { stopProcessTimer; }
}

metric idle_time {
    name "Idle Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent waiting for control processor.";
    foreach point "cmrts::idle:entry" { startProcessTimer; }
    foreach point "cmrts::idle:exit" { stopProcessTimer; }
}

metric node_activations {
    name "Node Activations";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of node activations by control processor.";
    foreach point "cmrts::node:activate" { incrCounter 1; }
}

metric p2p_operations {
    name "Point-to-Point Operations";
    units operations;
    aggregate sum;
    level "CMRTS";
    description "Count of inter-node communication operations.";
    foreach point "cmrts::msg:send" { incrCounter 1; }
}

metric p2p_time {
    name "Point-to-Point Time";
    units seconds;
    aggregate sum;
    level "CMRTS";
    description "Time spent sending data between parallel nodes.";
    foreach point "cmrts::msg:send" { startWallTimer; }
    foreach point "cmrts::msg:recv" { stopWallTimer; }
}

metric p2p_bytes {
    name "Point-to-Point Bytes";
    units bytes;
    aggregate sum;
    level "CMRTS";
    description "Bytes sent between parallel nodes.";
    foreach point "cmrts::msg:send" { incrCounterArg; }
}
"#;

/// Parses the catalogue. Panics only if the embedded source is broken
/// (covered by tests).
pub fn figure9_catalogue() -> MdlFile {
    parse_mdl(FIGURE9_MDL).expect("embedded Figure 9 MDL must parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses() {
        let f = figure9_catalogue();
        assert!(f.metrics.len() >= 30, "got {}", f.metrics.len());
    }

    #[test]
    fn catalogue_covers_every_figure9_row() {
        let f = figure9_catalogue();
        let names: Vec<&str> = f.metrics.iter().map(|m| m.name.as_str()).collect();
        for expected in [
            "Computations",
            "Computation Time",
            "Reductions",
            "Reduction Time",
            "Summations",
            "Summation Time",
            "MAXVAL Count",
            "MAXVAL Time",
            "MINVAL Count",
            "MINVAL Time",
            "Array Transformations",
            "Transformation Time",
            "Rotations",
            "Rotation Time",
            "Shifts",
            "Shift Time",
            "Transposes",
            "Transpose Time",
            "Scans",
            "Scan Time",
            "Sorts",
            "Sort Time",
            "Argument Processing Time",
            "Broadcasts",
            "Broadcast Time",
            "Cleanups",
            "Cleanup Time",
            "Idle Time",
            "Node Activations",
            "Point-to-Point Operations",
            "Point-to-Point Time",
        ] {
            assert!(names.contains(&expected), "missing metric: {expected}");
        }
    }

    #[test]
    fn levels_split_cmf_and_cmrts() {
        let f = figure9_catalogue();
        let cmf = f.metrics.iter().filter(|m| m.level == "CM Fortran").count();
        let cmrts = f.metrics.iter().filter(|m| m.level == "CMRTS").count();
        assert!(cmf >= 22);
        assert!(cmrts >= 9);
    }

    #[test]
    fn catalogue_survives_emit_parse_roundtrip() {
        let f = figure9_catalogue();
        let reparsed = parse_mdl(&f.emit()).unwrap();
        assert_eq!(f, reparsed);
    }

    #[test]
    fn point_names_match_the_cmrts_registry() {
        // Every point the catalogue references must be a real CMRTS point.
        let reg = dyninst_sim::PointRegistry::new();
        let pts = cmrts_sim::CmrtsPoints::intern(&reg);
        let known: std::collections::BTreeSet<&str> = pts.all().iter().map(|&(n, _)| n).collect();
        let f = figure9_catalogue();
        for m in &f.metrics {
            for pa in &m.points {
                assert!(
                    known.contains(pa.point.as_str()),
                    "metric {} references unknown point {}",
                    m.id,
                    pa.point
                );
            }
        }
    }
}
