//! A minimal OpenMetrics text-format validator for the `/metrics`
//! endpoint tests.
//!
//! Checks the structural subset of the spec the exposition server emits:
//!
//! * the document ends with exactly one `# EOF` line,
//! * `# HELP` and `# UNIT` appear at most once per family and before any
//!   of its samples, a HELP text holds no raw `"` or `\`, and a UNIT is a
//!   `_<unit>` suffix of its family name,
//! * every sample line names a metric declared by a preceding `# TYPE`
//!   line (with the `_total` / `_bucket` / `_count` / `_sum` suffix rules
//!   for counters and histograms),
//! * label blocks are well-formed `{name="value",...}` with no raw `"`,
//!   `\` or newline inside values,
//! * sample values parse as finite-or-+Inf-bound numbers,
//! * histogram `_bucket` series are cumulative in `le` order and end with
//!   an `le="+Inf"` bucket equal to `_count`,
//! * exemplars (`... # {labels} value`) appear only on histogram
//!   `_bucket` lines, carry well-formed labels, and their value respects
//!   the bucket's `le` bound.
//!
//! Intentionally not a full parser — timestamps and escape sequences are
//! rejected rather than handled, because the server never produces them;
//! seeing one is a bug.

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, including any `_total`/`_bucket` suffix.
    pub name: String,
    /// Label pairs in document order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
    /// Trailing exemplar, if any: its label pairs and value.
    pub exemplar: Option<(Vec<(String, String)>, f64)>,
}

/// A validated OpenMetrics document.
#[derive(Debug, Default)]
pub struct Exposition {
    /// `# TYPE` declarations in document order: `(family, type)`.
    pub families: Vec<(String, String)>,
    /// `# HELP` lines in document order: `(family, text)`.
    pub helps: Vec<(String, String)>,
    /// `# UNIT` lines in document order: `(family, unit)`.
    pub units: Vec<(String, String)>,
    /// All sample lines in document order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// All samples of `name` (exact sample-name match).
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The value of the single unlabeled sample `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }
}

/// Sample suffixes a declared family type allows.
fn allowed_suffixes(family_type: &str) -> &'static [&'static str] {
    match family_type {
        "counter" => &["_total"],
        "histogram" => &["_bucket", "_count", "_sum"],
        // gauge/unknown: the bare family name only.
        _ => &[""],
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value must be quoted: {after:?}"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("unterminated label value: {after:?}"))?;
        let value = &after[1..1 + close];
        if value.contains('\\') || value.contains('\n') {
            return Err(format!("escapes not supported in value {value:?}"));
        }
        labels.push((name.to_string(), value.to_string()));
        rest = &after[close + 2..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

/// Parses the part after `" # "`: `{labels} value`.
fn parse_exemplar(ex: &str) -> Result<(Vec<(String, String)>, f64), String> {
    let rest = ex
        .strip_prefix('{')
        .ok_or_else(|| format!("exemplar must start with a label block: {ex:?}"))?;
    let (block, value_str) = rest
        .split_once("} ")
        .ok_or_else(|| format!("exemplar needs a value after its labels: {ex:?}"))?;
    let labels = parse_labels(block)?;
    if labels.is_empty() {
        return Err(format!("exemplar label block is empty: {ex:?}"));
    }
    let value: f64 = value_str
        .parse()
        .map_err(|_| format!("bad exemplar value {value_str:?}"))?;
    if !value.is_finite() {
        return Err(format!("exemplar value must be finite: {value_str:?}"));
    }
    Ok((labels, value))
}

/// Parses and validates `text`; returns the document or the first error.
pub fn validate(text: &str) -> Result<Exposition, String> {
    if !text.ends_with("# EOF\n") {
        return Err("document must end with '# EOF\\n'".into());
    }
    let mut doc = Exposition::default();
    // Families that already have samples: their HELP/UNIT is too late.
    let mut sampled: Vec<String> = Vec::new();
    let mut eof_seen = false;
    for (ln, line) in text.lines().enumerate() {
        let ctx = |msg: String| format!("line {}: {msg}", ln + 1);
        if eof_seen {
            return Err(ctx("content after # EOF".into()));
        }
        if line == "# EOF" {
            eof_seen = true;
            continue;
        }
        if line.is_empty() {
            return Err(ctx("blank lines are not allowed".into()));
        }
        if let Some(meta) = line.strip_prefix("# ") {
            let mut parts = meta.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            match keyword {
                "TYPE" => {
                    let family = parts
                        .next()
                        .ok_or_else(|| ctx("TYPE needs a name".into()))?;
                    let kind = parts
                        .next()
                        .ok_or_else(|| ctx("TYPE needs a type".into()))?;
                    if !valid_name(family) {
                        return Err(ctx(format!("bad family name {family:?}")));
                    }
                    if !["counter", "gauge", "histogram", "unknown"].contains(&kind) {
                        return Err(ctx(format!("unsupported family type {kind:?}")));
                    }
                    if doc.families.iter().any(|(f, _)| f == family) {
                        return Err(ctx(format!("duplicate TYPE for {family:?}")));
                    }
                    doc.families.push((family.to_string(), kind.to_string()));
                }
                "HELP" | "UNIT" => {
                    let family = parts
                        .next()
                        .ok_or_else(|| ctx(format!("{keyword} needs a name")))?;
                    let text = parts.next().unwrap_or_default();
                    if !valid_name(family) {
                        return Err(ctx(format!("bad family name {family:?}")));
                    }
                    if sampled.iter().any(|f| f == family) {
                        return Err(ctx(format!("{keyword} for {family:?} after its samples")));
                    }
                    let seen = if keyword == "HELP" {
                        if text.contains(['"', '\\']) {
                            return Err(ctx(format!("unescaped HELP text {text:?}")));
                        }
                        &mut doc.helps
                    } else {
                        let suffix = family.strip_suffix(text);
                        if text.is_empty() || !suffix.is_some_and(|f| f.ends_with('_')) {
                            return Err(ctx(format!(
                                "UNIT {text:?} is not a suffix of {family:?}"
                            )));
                        }
                        &mut doc.units
                    };
                    if seen.iter().any(|(f, _)| f == family) {
                        return Err(ctx(format!("duplicate {keyword} for {family:?}")));
                    }
                    seen.push((family.to_string(), text.to_string()));
                }
                other => return Err(ctx(format!("unknown comment keyword {other:?}"))),
            }
            continue;
        }
        // Sample line: name[{labels}] value [# {labels} exemplar_value]
        let (sample_part, exemplar) = match line.split_once(" # ") {
            Some((s, ex)) => (s, Some(parse_exemplar(ex).map_err(ctx)?)),
            None => (line, None),
        };
        let (name_and_labels, value_str) = sample_part
            .rsplit_once(' ')
            .ok_or_else(|| ctx("sample line needs a value".into()))?;
        if value_str.contains('#') || name_and_labels.contains(' ') {
            return Err(ctx("timestamps are not supported".into()));
        }
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((n, rest)) => {
                let block = rest
                    .strip_suffix('}')
                    .ok_or_else(|| ctx("unterminated label block".into()))?;
                (n, parse_labels(block).map_err(ctx)?)
            }
            None => (name_and_labels, Vec::new()),
        };
        if !valid_name(name) {
            return Err(ctx(format!("bad sample name {name:?}")));
        }
        let value: f64 = value_str
            .parse()
            .map_err(|_| ctx(format!("bad sample value {value_str:?}")))?;
        // The sample must belong to a declared family, suffix-correctly.
        let owner = doc.families.iter().find(|(f, t)| {
            allowed_suffixes(t)
                .iter()
                .any(|sfx| name.strip_suffix(sfx) == Some(f))
        });
        let Some((family, family_type)) = owner else {
            return Err(ctx(format!("sample {name:?} has no matching # TYPE")));
        };
        if !sampled.contains(family) {
            sampled.push(family.clone());
        }
        if family_type == "counter" && value < 0.0 {
            return Err(ctx(format!("counter {name:?} is negative")));
        }
        if exemplar.is_some() && !(family_type == "histogram" && name.ends_with("_bucket")) {
            return Err(ctx(format!("exemplar on non-bucket sample {name:?}")));
        }
        doc.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
            exemplar,
        });
    }
    // Histogram checks: per family, buckets cumulative and +Inf == _count.
    for (family, kind) in &doc.families {
        if kind != "histogram" {
            continue;
        }
        let buckets = doc.series(&format!("{family}_bucket"));
        let mut last = f64::NEG_INFINITY;
        let mut prev_count = -1.0;
        let mut inf_value = None;
        for b in &buckets {
            let le = b
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("{family}_bucket without le label"))?;
            let bound: f64 = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .map_err(|_| format!("{family}: bad le bound {le:?}"))?
            };
            if bound <= last {
                return Err(format!("{family}: le bounds not increasing at {le:?}"));
            }
            if b.value < prev_count {
                return Err(format!("{family}: bucket counts not cumulative at {le:?}"));
            }
            if let Some((_, ex_value)) = &b.exemplar {
                if *ex_value > bound {
                    return Err(format!(
                        "{family}: exemplar {ex_value} exceeds le bound {le:?}"
                    ));
                }
            }
            last = bound;
            prev_count = b.value;
            if bound.is_infinite() {
                inf_value = Some(b.value);
            }
        }
        if !buckets.is_empty() {
            let inf = inf_value.ok_or_else(|| format!("{family}: no +Inf bucket"))?;
            let count = doc
                .value(&format!("{family}_count"))
                .ok_or_else(|| format!("{family}: missing _count"))?;
            if (inf - count).abs() > 1e-9 {
                return Err(format!("{family}: +Inf bucket {inf} != _count {count}"));
            }
        }
    }
    Ok(doc)
}
