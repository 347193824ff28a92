//! `mdgan report` renders the repo benchmark's trajectory from its committed
//! run records, so no number in the table is typed by hand.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- report
//! ```
//!
//! Run from the repository root. It reads every
//! `results/runs/<pr>/pairs.jsonl` (in numeric order; a directory without
//! one is skipped) and the end-to-end metric names and directions of
//! `BENCHMARK.json`, and rewrites what lies between the
//! `<!-- report:begin -->` and `<!-- report:end -->` markers of
//! `EXPERIMENTS.md`: one table per workload, one row per record. Parent and
//! change runs are paired by seed (a seed run on one side only is left
//! out); each cell is the parent median → the change median over the
//! pairs, the change in percent, and the pairs the change won in the
//! metric's direction (a tie counts for neither side).

use md_bench::{Args, BinError};
use md_telemetry::json::{parse, Value};
use mdgan_core::TrainError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

const BEGIN: &str = "<!-- report:begin -->";
const END: &str = "<!-- report:end -->";
const DOC: &str = "EXPERIMENTS.md";

/// One side's end-to-end metrics in one result line, by name.
type Metrics = BTreeMap<String, f64>;
/// One record's runs: workload → seed → [parent, change].
type Pairs = BTreeMap<String, BTreeMap<u64, [Option<Metrics>; 2]>>;
/// An end-to-end metric: its name and whether lower is better.
type Metric = (String, bool);

pub fn run(_args: &Args) -> Result<(), BinError> {
    let metrics = end_to_end(&read("BENCHMARK.json")?)?;
    let mut runs: Vec<(u64, String)> = fs::read_dir("results/runs")
        .map_err(|e| config(format!("cannot read results/runs: {e}")))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some((name.parse().ok()?, name))
        })
        .collect();
    runs.sort();
    let mut records = Vec::new();
    for (pr, dir) in runs {
        let path = format!("results/runs/{dir}/pairs.jsonl");
        if Path::new(&path).exists() {
            let record = pairs(&read(&path)?).map_err(|e| config(format!("{path}: {e}")))?;
            records.push((pr, record));
        }
    }
    let doc = read(DOC)?;
    let (Some(begin), Some(end)) = (doc.find(BEGIN), doc.find(END)) else {
        return Err(config(format!("{DOC} has no {BEGIN} … {END} markers")));
    };
    let head = &doc[..begin + BEGIN.len()];
    if end < head.len() {
        return Err(config(format!("{DOC} has {END} before {BEGIN}")));
    }
    let spliced = format!("{head}\n{}{}", render(&metrics, &records), &doc[end..]);
    fs::write(DOC, spliced).map_err(TrainError::writing(DOC))?;
    println!("wrote {DOC}");
    Ok(())
}

fn config(msg: String) -> BinError {
    BinError::Train(TrainError::Config(msg))
}

fn read(path: &str) -> Result<String, BinError> {
    fs::read_to_string(path).map_err(|e| config(format!("cannot read {path}: {e}")))
}

/// The `end_to_end` metrics of `BENCHMARK.json`, in its order.
fn end_to_end(text: &str) -> Result<Vec<Metric>, BinError> {
    let bad = |what: &str| config(format!("BENCHMARK.json: {what}"));
    let root = parse(text).map_err(|e| bad(&e))?;
    let list = root.get("end_to_end").and_then(Value::as_arr);
    list.ok_or_else(|| bad("no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            match (name, better) {
                (Some(name), Some(b @ ("lower" | "higher"))) => Ok((name.into(), b == "lower")),
                _ => Err(bad(
                    "an end_to_end entry needs a name and better: lower|higher",
                )),
            }
        })
        .collect()
}

/// Groups the result lines of one `pairs.jsonl` by workload, seed and side.
fn pairs(text: &str) -> Result<Pairs, String> {
    let mut out = Pairs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: &str| format!("line {}: {e}", i + 1);
        let v = parse(line).map_err(|e| at(&e))?;
        let field = |key| v.get(key).ok_or_else(|| at(&format!("no {key:?}")));
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| at("bad workload"))?;
        let seed = field("seed")?.as_f64().ok_or_else(|| at("bad seed"))? as u64;
        let side = match field("side")?.as_str() {
            Some("parent") => 0,
            Some("change") => 1,
            _ => return Err(at("side is neither parent nor change")),
        };
        let metrics = match v.get("result").and_then(|r| r.get("metrics")) {
            Some(Value::Obj(members)) => members
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => return Err(at("no result.metrics")),
        };
        let slot = &mut out
            .entry(workload.into())
            .or_default()
            .entry(seed)
            .or_default()[side];
        if slot.replace(metrics).is_some() {
            return Err(at(&format!("seed {seed} repeats on one side")));
        }
    }
    Ok(out)
}

/// The trajectory: one table per workload (any record names), one row per
/// record.
fn render(metrics: &[Metric], records: &[(u64, Pairs)]) -> String {
    let workloads: BTreeSet<&String> = records.iter().flat_map(|(_, p)| p.keys()).collect();
    let mut out = String::new();
    for w in workloads {
        let _ = write!(out, "\n**`{w}`**\n\n| PR |");
        for (name, lower) in metrics {
            let _ = write!(out, " `{name}` {} |", if *lower { "↓" } else { "↑" });
        }
        let _ = write!(out, "\n|---|{}\n", "---|".repeat(metrics.len()));
        for (pr, pairs) in records {
            let _ = write!(out, "| {pr} |");
            for m in metrics {
                let _ = write!(
                    out,
                    " {} |",
                    pairs.get(w).map_or("—".into(), |p| cell(m, p))
                );
            }
            out.push('\n');
        }
    }
    out.push('\n');
    out
}

/// `parent → change (±x.x %, wins/pairs)` over the seeds run on both sides
/// that carry the metric, or "—" when there are none.
fn cell((name, lower): &Metric, seeds: &BTreeMap<u64, [Option<Metrics>; 2]>) -> String {
    let (parent, change): (Vec<f64>, Vec<f64>) = seeds
        .values()
        .filter_map(|[p, c]| Some((*p.as_ref()?.get(name)?, *c.as_ref()?.get(name)?)))
        .unzip();
    if parent.is_empty() {
        return "—".into();
    }
    let won = |(p, c): (&f64, &f64)| if *lower { c < p } else { c > p };
    let wins = parent.iter().zip(&change).filter(|&pc| won(pc)).count();
    let n = parent.len();
    let (p, c) = (median(parent), median(change));
    let pct = format!("{:+.1}", (c / p - 1.0) * 100.0).replace('-', "−");
    format!("{} → {} ({pct} %, {wins}/{n})", sig4(p), sig4(c))
}

/// The median; of an even count, the mean of the middle two.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `v` to four significant digits; a value of 10⁴ or more prints whole.
fn sig4(v: f64) -> String {
    let exp: i32 = format!("{v:.3e}")
        .split('e')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    format!("{v:.*}", (3 - exp).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, side: &str, seed: u64, metrics: &[(&str, f64)]) -> String {
        let m: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!(r#""{k}":{{"value":{v},"unit":"s"}}"#))
            .collect();
        format!(
            r#"{{"workload":"{workload}","side":"{side}","seed":{seed},"result":{{"metrics":{{{}}}}}}}"#,
            m.join(",")
        )
    }

    fn lines(rows: &[(&str, u64, f64)]) -> String {
        rows.iter()
            .map(|&(side, seed, v)| line("w", side, seed, &[("t", v)]) + "\n")
            .collect()
    }

    fn one_cell(rows: &[(&str, u64, f64)], lower: bool) -> String {
        let p = pairs(&lines(rows)).unwrap();
        cell(&("t".into(), lower), &p["w"])
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        let odd = [("parent", 1, 1.0), ("change", 1, 2.0)];
        let odd = [&odd[..], &[("parent", 2, 3.0), ("change", 2, 4.0)]].concat();
        let odd = [&odd[..], &[("parent", 3, 5.0), ("change", 3, 9.0)]].concat();
        assert_eq!(one_cell(&odd, false), "3.000 → 4.000 (+33.3 %, 3/3)");
        let even = [&odd[..], &[("parent", 4, 7.0), ("change", 4, 1.0)]].concat();
        assert_eq!(one_cell(&even, false), "4.000 → 3.000 (−25.0 %, 3/4)");
    }

    #[test]
    fn pairs_are_matched_by_seed_and_unmatched_seeds_are_ignored() {
        // Seed 9 ran on the parent side only: its 100.0 is in no pair.
        let rows = [
            ("change", 2, 1.0),
            ("parent", 9, 100.0),
            ("parent", 1, 2.0),
            ("parent", 2, 4.0),
            ("change", 1, 3.0),
        ];
        assert_eq!(one_cell(&rows, true), "3.000 → 2.000 (−33.3 %, 1/2)");
    }

    #[test]
    fn a_tie_counts_for_neither_side() {
        let rows = [
            ("parent", 1, 5.0),
            ("change", 1, 5.0),
            ("parent", 2, 5.0),
            ("change", 2, 6.0),
        ];
        assert_eq!(one_cell(&rows, true), "5.000 → 5.500 (+10.0 %, 0/2)");
        assert_eq!(one_cell(&rows, false), "5.000 → 5.500 (+10.0 %, 1/2)");
    }

    #[test]
    fn a_metric_a_record_lacks_renders_as_a_dash() {
        let text = [
            line("w", "parent", 1, &[("a", 2.0)]),
            line("w", "change", 1, &[("a", 1.0)]),
        ]
        .join("\n");
        let metrics = [("a".to_string(), true), ("b".to_string(), true)];
        let table = render(&metrics, &[(7, pairs(&text).unwrap())]);
        assert!(
            table.contains("| 7 | 2.000 → 1.000 (−50.0 %, 1/1) | — |"),
            "{table}"
        );
    }

    #[test]
    fn values_print_to_four_significant_digits() {
        assert_eq!(sig4(0.027614963), "0.02761");
        assert_eq!(sig4(55.03), "55.03");
        assert_eq!(sig4(9.99996), "10.00");
        assert_eq!(sig4(746308.67), "746309");
    }

    #[test]
    fn a_seed_repeated_on_one_side_is_an_error() {
        let rows = [("parent", 1, 1.0), ("parent", 1, 2.0)];
        assert!(pairs(&lines(&rows)).unwrap_err().contains("seed 1 repeats"));
    }
}
