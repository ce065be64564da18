//! MDL abstract syntax.

use std::fmt;

/// Units a metric is expressed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdlUnit {
    /// Time in seconds (implies a timer primitive).
    Seconds,
    /// Event counts (implies a counter primitive).
    Operations,
    /// Byte counts (counter).
    Bytes,
    /// Utilisation percentage (counter sampled as ratio).
    Percent,
}

impl fmt::Display for MdlUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MdlUnit::Seconds => "seconds",
            MdlUnit::Operations => "operations",
            MdlUnit::Bytes => "bytes",
            MdlUnit::Percent => "percent",
        })
    }
}

impl MdlUnit {
    /// The unit named by an MDL `units` keyword (the inverse of `Display`).
    pub fn from_keyword(keyword: &str) -> Option<Self> {
        match keyword {
            "seconds" => Some(Self::Seconds),
            "operations" => Some(Self::Operations),
            "bytes" => Some(Self::Bytes),
            "percent" => Some(Self::Percent),
            _ => None,
        }
    }
}

/// How samples aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdlAgg {
    /// Summable.
    Sum,
    /// Averaged.
    Average,
}

impl fmt::Display for MdlAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MdlAgg::Sum => "sum",
            MdlAgg::Average => "average",
        })
    }
}

/// One action inside a `foreach point` block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MdlAction {
    /// `incrCounter <n>;`
    IncrCounter(i64),
    /// `incrCounterArg;` — add the point's numeric payload.
    IncrCounterArg,
    /// `startProcessTimer;`
    StartProcessTimer,
    /// `stopProcessTimer;`
    StopProcessTimer,
    /// `startWallTimer;`
    StartWallTimer,
    /// `stopWallTimer;`
    StopWallTimer,
    /// `activateSentence;` — mapping instrumentation: report the point's
    /// subject sentence active.
    ActivateSentence,
    /// `deactivateSentence;`
    DeactivateSentence,
}

/// Actions attached to one named point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointActions {
    /// The point name (resolved against the substrate's registry at
    /// instantiation time).
    pub point: String,
    /// Actions run when the point fires.
    pub actions: Vec<MdlAction>,
}

/// One `metric` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricDecl {
    /// Internal identifier (the word after `metric`).
    pub id: String,
    /// Display name.
    pub name: String,
    /// Units.
    pub units: MdlUnit,
    /// Aggregation.
    pub aggregate: MdlAgg,
    /// Level of abstraction the metric belongs to.
    pub level: String,
    /// Human description (Figure 9's right column).
    pub description: String,
    /// Per-point action lists.
    pub points: Vec<PointActions>,
}

/// A parsed MDL file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MdlFile {
    /// Declared metrics, in order.
    pub metrics: Vec<MetricDecl>,
}

impl MdlFile {
    /// Finds a metric by internal id.
    pub fn metric(&self, id: &str) -> Option<&MetricDecl> {
        self.metrics.iter().find(|m| m.id == id)
    }
}

impl MetricDecl {
    /// True if the metric is timer-based (unit seconds), false if
    /// counter-based.
    pub fn is_timer(&self) -> bool {
        self.units == MdlUnit::Seconds
    }

    /// Emits parseable MDL source for this declaration.
    pub fn emit(&self) -> String {
        let mut out = format!("metric {} {{\n", self.id);
        out.push_str(&format!("    name \"{}\";\n", escape(&self.name)));
        out.push_str(&format!("    units {};\n", self.units));
        out.push_str(&format!("    aggregate {};\n", self.aggregate));
        out.push_str(&format!("    level \"{}\";\n", escape(&self.level)));
        if !self.description.is_empty() {
            out.push_str(&format!(
                "    description \"{}\";\n",
                escape(&self.description)
            ));
        }
        for pa in &self.points {
            out.push_str(&format!("    foreach point \"{}\" {{ ", escape(&pa.point)));
            for a in &pa.actions {
                out.push_str(&a.emit());
                out.push(' ');
            }
            out.push_str("}\n");
        }
        out.push('}');
        out
    }
}

impl MdlAction {
    /// The concrete-syntax spelling of this action (with trailing `;`).
    pub fn emit(&self) -> String {
        match self {
            MdlAction::IncrCounter(n) => format!("incrCounter {n};"),
            MdlAction::IncrCounterArg => "incrCounterArg;".to_string(),
            MdlAction::StartProcessTimer => "startProcessTimer;".to_string(),
            MdlAction::StopProcessTimer => "stopProcessTimer;".to_string(),
            MdlAction::StartWallTimer => "startWallTimer;".to_string(),
            MdlAction::StopWallTimer => "stopWallTimer;".to_string(),
            MdlAction::ActivateSentence => "activateSentence;".to_string(),
            MdlAction::DeactivateSentence => "deactivateSentence;".to_string(),
        }
    }
}

impl MdlFile {
    /// Emits parseable MDL source for the whole file.
    pub fn emit(&self) -> String {
        self.metrics
            .iter()
            .map(MetricDecl::emit)
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(MdlUnit::Seconds.to_string(), "seconds");
        assert_eq!(MdlAgg::Average.to_string(), "average");
        assert_eq!(MdlUnit::from_keyword("bytes"), Some(MdlUnit::Bytes));
        assert_eq!(MdlUnit::from_keyword("ns"), None);
    }

    #[test]
    fn is_timer_follows_units() {
        let mut decl = MetricDecl {
            id: "x".into(),
            name: "X".into(),
            units: MdlUnit::Seconds,
            aggregate: MdlAgg::Sum,
            level: "L".into(),
            description: String::new(),
            points: vec![],
        };
        assert!(decl.is_timer());
        decl.units = MdlUnit::Operations;
        assert!(!decl.is_timer());
    }

    #[test]
    fn emit_parse_roundtrip() {
        let src = r#"metric t {
    name "Summation \"special\" Time";
    units seconds;
    aggregate average;
    level "CM Fortran";
    description "Time spent summing.";
    foreach point "cmrts::reduce:sum:entry" { startProcessTimer; }
    foreach point "cmrts::reduce:sum:exit" { stopProcessTimer; }
}"#;
        let parsed = crate::mdl::parse_mdl(src).unwrap();
        let emitted = parsed.emit();
        let reparsed = crate::mdl::parse_mdl(&emitted).unwrap();
        assert_eq!(parsed, reparsed);
        assert!(emitted.contains("aggregate average;"));
    }

    #[test]
    fn action_emit_covers_all_variants() {
        let actions = [
            MdlAction::IncrCounter(-3),
            MdlAction::IncrCounterArg,
            MdlAction::StartProcessTimer,
            MdlAction::StopProcessTimer,
            MdlAction::StartWallTimer,
            MdlAction::StopWallTimer,
            MdlAction::ActivateSentence,
            MdlAction::DeactivateSentence,
        ];
        for a in actions {
            assert!(a.emit().ends_with(';'));
        }
        assert_eq!(MdlAction::IncrCounter(-3).emit(), "incrCounter -3;");
    }

    #[test]
    fn file_lookup() {
        let f = MdlFile {
            metrics: vec![MetricDecl {
                id: "m1".into(),
                name: "M1".into(),
                units: MdlUnit::Bytes,
                aggregate: MdlAgg::Sum,
                level: "L".into(),
                description: String::new(),
                points: vec![],
            }],
        };
        assert!(f.metric("m1").is_some());
        assert!(f.metric("m2").is_none());
    }
}
