//! JSON emit/parse for [`Report`].  Emission is hand-written so the
//! committed `BENCH_8.json` keeps its one-bench-per-line layout; parsing
//! goes through the workspace's one JSON parser, [`mdes_telemetry::json`].

use std::collections::BTreeMap;

use mdes_telemetry::json::Json;

use crate::{Report, Sample};

/// Serializes a report (stable key order, one bench per line — the
/// committed `BENCH_8.json` should diff cleanly).
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", report.schema));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!(
        "  \"checker_speedup\": {:.3},\n",
        report.checker_speedup
    ));
    out.push_str(&format!(
        "  \"batch_scaling\": {:.3},\n",
        report.batch_scaling
    ));
    out.push_str(&format!("  \"oracle_gap\": {:.3},\n", report.oracle_gap));
    out.push_str(&format!(
        "  \"serve_p50_us\": {:.3},\n",
        report.serve_p50_us
    ));
    out.push_str(&format!(
        "  \"serve_p99_us\": {:.3},\n",
        report.serve_p99_us
    ));
    out.push_str("  \"benches\": [\n");
    for (i, s) in report.benches.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"reps\": {}, \"ops\": {}, \"median_ns\": {}, \"min_ns\": {}}}{}\n",
            s.name,
            s.iters,
            s.reps,
            s.ops,
            s.median_ns,
            s.min_ns,
            if i + 1 < report.benches.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

impl Report {
    /// [`to_json`] as a method.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Parses a report emitted by [`to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let top = Json::parse(text)?;
        let top = object(&top, "top level")?;
        let schema = get_u64(top, "schema")? as u32;
        // Schema 4 added `serve_p50_us`/`serve_p99_us` and the
        // `serve/load/*` family (schema 3 added the oracle gap figure and
        // the `oracle/bnb/*` family; schema 2 added `batch_scaling` and
        // the w8/w16 engine benches); older baselines predate those
        // gates and must be regenerated, not silently compared against.
        if schema != 4 {
            return Err(format!("unsupported report schema {schema}"));
        }
        let benches = get(top, "benches")?
            .as_arr()
            .ok_or("benches: expected an array")?
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let obj = object(entry, &format!("benches[{i}]"))?;
                Ok(Sample {
                    name: get(obj, "name")?
                        .as_str()
                        .ok_or("name: expected a string")?
                        .to_string(),
                    iters: get_u64(obj, "iters")?,
                    reps: get_u64(obj, "reps")?,
                    ops: get_u64(obj, "ops")?,
                    median_ns: get_u64(obj, "median_ns")?.into(),
                    min_ns: get_u64(obj, "min_ns")?.into(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Report {
            schema,
            seed: get_u64(top, "seed")?,
            benches,
            checker_speedup: get_f64(top, "checker_speedup")?,
            batch_scaling: get_f64(top, "batch_scaling")?,
            oracle_gap: get_f64(top, "oracle_gap")?,
            serve_p50_us: get_f64(top, "serve_p50_us")?,
            serve_p99_us: get_f64(top, "serve_p99_us")?,
        })
    }
}

type Object = BTreeMap<String, Json>;

fn object<'a>(value: &'a Json, what: &str) -> Result<&'a Object, String> {
    value
        .as_obj()
        .ok_or_else(|| format!("{what}: expected an object"))
}

fn get<'a>(obj: &'a Object, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn get_f64(obj: &Object, key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("{key}: expected a number"))
}

fn get_u64(obj: &Object, key: &str) -> Result<u64, String> {
    let n = get_f64(obj, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("{key}: expected a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, ops: u64, median: u128) -> Sample {
        Sample {
            name: name.to_string(),
            iters: 100,
            reps: 5,
            ops,
            median_ns: median,
            min_ns: median - 10,
        }
    }

    fn report() -> Report {
        Report {
            schema: 4,
            seed: 42,
            benches: vec![
                sample("rumap/word_ops", 8192, 1_000_000),
                sample("checker/arena/wide", 2048, 50_000),
            ],
            checker_speedup: 2.5,
            batch_scaling: 3.2,
            oracle_gap: 1.04,
            serve_p50_us: 850.0,
            serve_p99_us: 2400.0,
        }
    }

    #[test]
    fn json_round_trips() {
        let original = report();
        let decoded = Report::from_json(&original.to_json()).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn emission_is_byte_stable() {
        assert_eq!(report().to_json(), report().to_json());
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        for old in ["\"schema\": 3", "\"schema\": 9"] {
            let text = report().to_json().replace("\"schema\": 4", old);
            assert!(Report::from_json(&text).unwrap_err().contains("schema"));
        }
    }

    #[test]
    fn parse_rejects_missing_keys_and_non_integer_counts() {
        let text = report().to_json().replace("\"seed\"", "\"sowed\"");
        assert_eq!(
            Report::from_json(&text).unwrap_err(),
            "missing key \"seed\""
        );
        let text = report().to_json().replace("\"ops\": 8192", "\"ops\": 81.5");
        assert!(Report::from_json(&text)
            .unwrap_err()
            .contains("ops: expected a non-negative integer"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Report::from_json("{\"schema\": ").is_err());
        assert!(Report::from_json("[]").is_err());
        assert!(Report::from_json("{} extra").is_err());
    }
}
