//! Chrome `trace_event` / Perfetto export and the textual per-block
//! timeline.
//!
//! The JSON emitted here loads directly in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): committed misses become complete
//! (`"X"`) spans — one parent span per transaction plus one child span
//! per non-zero attribution segment, laid end-to-end so the children
//! tile the parent exactly — and every other event becomes a thread-
//! scoped instant (`"i"`). Timestamps are microseconds (the format's
//! unit); simulation picoseconds survive exactly in each event's `args`.

use std::fmt::Write as _;

use tokencmp_sim::NodeId;

use tokencmp_proto::Block;

use crate::event::TraceEvent;
use crate::latency::Segment;
use crate::sink::TraceRecord;
use crate::timeseries::TimeSeries;

/// Microsecond timestamp string for a picosecond instant.
fn us(ps: u64) -> String {
    format!("{:.6}", ps as f64 / 1e6)
}

/// Appends one Chrome event: a complete (`"X"`) span when `dur_ps` is
/// present, a thread-scoped instant (`"i"`) otherwise.
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ts_ps: u64,
    dur_ps: Option<u64>,
    tid: u64,
    args: &[(&str, String)],
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let ph = if dur_ps.is_some() { "X" } else { "i" };
    let _ = write!(
        out,
        "\n  {{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{tid}",
        us(ts_ps)
    );
    if let Some(d) = dur_ps {
        let _ = write!(out, ",\"dur\":{}", us(d));
    } else {
        out.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
    }
    out.push('}');
}

/// The thread lane an event renders on: the acting processor for
/// sequencer/miss events, the acting node otherwise.
fn lane(ev: &TraceEvent) -> u64 {
    match *ev {
        TraceEvent::SeqIssue { proc, .. }
        | TraceEvent::SeqCommit { proc, .. }
        | TraceEvent::MissCommit { proc, .. }
        | TraceEvent::PersistentActivate { proc, .. }
        | TraceEvent::PersistentDeactivate { proc, .. }
        | TraceEvent::ArbRequest { proc, .. }
        | TraceEvent::ArbDone { proc, .. } => proc.0 as u64,
        TraceEvent::MsgSend { src: NodeId(n), .. }
        | TraceEvent::TokensMoved {
            from: NodeId(n), ..
        }
        | TraceEvent::CacheFill {
            node: NodeId(n), ..
        }
        | TraceEvent::CacheEvict {
            node: NodeId(n), ..
        }
        | TraceEvent::TokensDelivered {
            node: NodeId(n), ..
        }
        | TraceEvent::AccessDone {
            node: NodeId(n), ..
        }
        | TraceEvent::TableApply {
            node: NodeId(n), ..
        }
        | TraceEvent::StaleDiscard {
            node: NodeId(n), ..
        }
        | TraceEvent::EpochInval {
            node: NodeId(n), ..
        } => n as u64,
        TraceEvent::TokenLost { to: NodeId(n), .. } => n as u64,
        TraceEvent::Fault { .. }
        | TraceEvent::RecreationStart { .. }
        | TraceEvent::RecreationDone { .. } => 0,
    }
}

/// Renders records as a Chrome `trace_event` JSON document
/// (`{"displayTimeUnit":"ns","traceEvents":[...]}`).
///
/// Every [`MissCommit`](TraceEvent::MissCommit) becomes a parent `"X"`
/// span of the full miss latency whose `args` carry the exact picosecond
/// attribution, tiled by one child span per non-zero segment in
/// transaction order (retry, then transfer, then persistent wait) — the
/// children's durations sum to the parent's by construction.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    chrome_trace_with_counters(records, None)
}

/// [`chrome_trace_json`] plus Perfetto **counter tracks**: each gauge
/// and rate key of `series` becomes a `"C"`-phase counter sampled at
/// the series' period, so one trace file shows event spans and state
/// trends (queue depth, token dispersion, persistent pressure, ...)
/// on a shared sim-time axis.
pub fn chrome_trace_with_counters(records: &[TraceRecord], series: Option<&TimeSeries>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    if let Some(ts) = series {
        for s in &ts.samples {
            for (k, &v) in &s.gauges {
                push_counter(&mut out, &mut first, k, s.at_ps, v.to_string());
            }
            for (k, &v) in &s.rates {
                push_counter(&mut out, &mut first, k, s.at_ps, format!("{v:.3}"));
            }
        }
    }
    // Children tile the parent in the order the transaction experienced
    // them: timed-out attempts, then the winning transfer, then any
    // persistent wait.
    const SPAN_ORDER: [Segment; 6] = [
        Segment::Retry,
        Segment::Intra,
        Segment::Inter,
        Segment::Mem,
        Segment::PersistentWait,
        Segment::Recovery,
    ];
    for r in records {
        match r.ev {
            TraceEvent::MissCommit {
                proc,
                block,
                kind,
                total,
                parts,
            } => {
                let start = r.at.as_ps() - total.as_ps();
                let mut args: Vec<(&str, String)> = vec![
                    ("block", block.0.to_string()),
                    ("seq", r.seq.to_string()),
                    ("total_ps", total.as_ps().to_string()),
                ];
                for s in Segment::ALL {
                    args.push((seg_arg(s), parts.get(s).to_string()));
                }
                push_event(
                    &mut out,
                    &mut first,
                    &format!("miss {kind:?} block {}", block.0),
                    start,
                    Some(total.as_ps()),
                    proc.0 as u64,
                    &args,
                );
                let mut cursor = start;
                for s in SPAN_ORDER {
                    let d = parts.get(s);
                    if d == 0 {
                        continue;
                    }
                    push_event(
                        &mut out,
                        &mut first,
                        s.label(),
                        cursor,
                        Some(d),
                        proc.0 as u64,
                        &[("ps", d.to_string())],
                    );
                    cursor += d;
                }
            }
            ref ev => {
                let mut args: Vec<(&str, String)> = vec![("seq", r.seq.to_string())];
                if let Some(b) = ev.block() {
                    args.push(("block", b.0.to_string()));
                }
                push_event(
                    &mut out,
                    &mut first,
                    &format!("{ev}"),
                    r.at.as_ps(),
                    None,
                    lane(ev),
                    &args,
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Appends one Perfetto counter (`"C"`) sample.
fn push_counter(out: &mut String, first: &mut bool, name: &str, ts_ps: u64, value: String) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "\n  {{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{value}}}}}",
        us(ts_ps)
    );
}

fn seg_arg(s: Segment) -> &'static str {
    match s {
        Segment::Intra => "intra_ps",
        Segment::Inter => "inter_ps",
        Segment::Mem => "mem_ps",
        Segment::Retry => "retry_ps",
        Segment::PersistentWait => "persistent_wait_ps",
        Segment::Recovery => "recovery_ps",
    }
}

/// Renders a human-readable timeline of the records touching `block`
/// (all records if `block` is `None`) — the structured successor of the
/// legacy `TOKENCMP_TRACE_BLOCK` `eprintln!` hooks.
pub fn block_timeline(records: &[TraceRecord], block: Option<Block>) -> String {
    let mut out = String::new();
    for r in records {
        if let Some(want) = block {
            if r.ev.block() != Some(want) {
                continue;
            }
        }
        let _ = writeln!(out, "#{:<6} @{:>12} {}", r.seq, format!("{}", r.at), r.ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::SegmentParts;
    use tokencmp_proto::{AccessKind, ProcId};
    use tokencmp_sim::{Dur, Time};

    fn commit(at_ns: u64, total_ps: u64, parts: SegmentParts) -> TraceRecord {
        TraceRecord {
            seq: 0,
            at: Time::from_ns(at_ns),
            ev: TraceEvent::MissCommit {
                proc: ProcId(2),
                block: Block(9),
                kind: AccessKind::Load,
                total: Dur::from_ps(total_ps),
                parts,
            },
        }
    }

    #[test]
    fn miss_children_tile_the_parent() {
        let parts = SegmentParts {
            retry: 1_000,
            inter: 3_000,
            ..SegmentParts::default()
        };
        let json = chrome_trace_json(&[commit(10, 4_000, parts)]);
        // parent: starts at 10ns - 4ns = 6ns = 6.0 µs·1e-3 → 0.006 µs·...
        // (10_000ps - 4_000ps = 6_000ps = 0.006 µs)
        assert!(json.contains("\"ts\":0.006000,\"pid\":0,\"tid\":2,\"dur\":0.004000"));
        // retry child then inter child, end-to-end
        assert!(json.contains("\"name\":\"retry\",\"ph\":\"X\",\"ts\":0.006000"));
        assert!(json.contains("\"name\":\"inter\",\"ph\":\"X\",\"ts\":0.007000"));
        assert!(json.contains("\"total_ps\":4000"));
        assert!(json.contains("\"retry_ps\":1000"));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn instants_and_timeline_filter() {
        let recs = [
            TraceRecord {
                seq: 0,
                at: Time::from_ns(1),
                ev: TraceEvent::SeqIssue {
                    proc: ProcId(0),
                    block: Block(4),
                    kind: AccessKind::Store,
                },
            },
            TraceRecord {
                seq: 1,
                at: Time::from_ns(2),
                ev: TraceEvent::SeqIssue {
                    proc: ProcId(1),
                    block: Block(5),
                    kind: AccessKind::Load,
                },
            },
        ];
        let json = chrome_trace_json(&recs);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        let tl = block_timeline(&recs, Some(Block(5)));
        assert!(tl.contains("B0x5") && !tl.contains("B0x4"));
        let all = block_timeline(&recs, None);
        assert_eq!(all.lines().count(), 2);
    }

    #[test]
    fn counter_tracks_merge_into_the_span_export() {
        use std::collections::BTreeMap;
        let mut ts = TimeSeries::new(Dur::from_ns(10));
        for i in 0..2u64 {
            let mut gauges = BTreeMap::new();
            gauges.insert("kernel.queue_depth".to_string(), 3 + i);
            let mut rates = BTreeMap::new();
            rates.insert("rate.misses".to_string(), 1.5);
            ts.push(Time::from_ns(10 * i), gauges, rates);
        }
        let recs = [commit(30, 4_000, SegmentParts::default())];
        let json = chrome_trace_with_counters(&recs, Some(&ts));
        // Counters at 0 and 10 ns (0.000 / 0.010 µs)...
        assert!(json.contains(
            "{\"name\":\"kernel.queue_depth\",\"ph\":\"C\",\"ts\":0.000000,\"pid\":0,\"args\":{\"value\":3}}"
        ));
        assert!(json.contains("\"ts\":0.010000,\"pid\":0,\"args\":{\"value\":4}"));
        assert!(json.contains("{\"name\":\"rate.misses\",\"ph\":\"C\""));
        assert!(json.contains("\"value\":1.500"));
        // ...alongside the ordinary span export, in one valid document.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Without a series the plain export is unchanged.
        assert_eq!(
            chrome_trace_json(&recs),
            chrome_trace_with_counters(&recs, None)
        );
    }
}
