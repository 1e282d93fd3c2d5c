//! Offline journal analysis: span trees with self/total time, top-N
//! slowest traces, and collapsed-stack (flamegraph compatible) output.
//!
//! This is the engine behind `smith85 trace report` and
//! `smith85 trace follow`.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::json::Json;
use crate::{EventKind, FieldValue, Severity, TraceEvent};

/// The journal's versioned first line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version (`"v"`), currently 1.
    pub version: u64,
    /// Schema identifier (`"schema"`).
    pub schema: String,
}

/// Decodes one journal line's parsed JSON back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a description of the first missing/ill-typed key.
pub fn parse_event(value: &Json) -> Result<TraceEvent, String> {
    let ts_us = value
        .get("ts_us")
        .and_then(|v| v.as_u64())
        .ok_or("missing ts_us")?;
    let kind_str = value
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or("missing kind")?;
    let kind = EventKind::parse(kind_str).ok_or_else(|| format!("unknown kind {kind_str:?}"))?;
    let sev_str = value
        .get("sev")
        .and_then(|v| v.as_str())
        .ok_or("missing sev")?;
    let severity =
        Severity::parse(sev_str).ok_or_else(|| format!("unknown severity {sev_str:?}"))?;
    let name = value
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or("missing name")?
        .to_string();
    let trace_id: Arc<str> = Arc::from(
        value
            .get("trace")
            .and_then(|v| v.as_str())
            .ok_or("missing trace")?,
    );
    let span_id = value
        .get("span")
        .and_then(|v| v.as_u64())
        .ok_or("missing span")?;
    let parent_span_id = value
        .get("parent")
        .and_then(|v| v.as_u64())
        .ok_or("missing parent")?;
    let mut fields = Vec::new();
    if let Some(Json::Obj(pairs)) = value.get("fields") {
        for (key, val) in pairs {
            let field = match val {
                Json::Str(s) => FieldValue::Str(s.clone()),
                Json::Uint(n) => FieldValue::U64(*n),
                Json::Num(n) => FieldValue::F64(*n),
                other => FieldValue::Str(format!("{other:?}")),
            };
            fields.push((key.clone(), field));
        }
    }
    Ok(TraceEvent {
        ts_us,
        kind,
        severity,
        name,
        trace_id,
        span_id,
        parent_span_id,
        fields,
    })
}

/// Reads a whole journal file: header (if present) plus every event.
///
/// # Errors
///
/// I/O errors reading the file; malformed JSON or malformed events
/// surface as [`io::ErrorKind::InvalidData`] with the line number.
pub fn read_journal<P: AsRef<Path>>(
    path: P,
) -> io::Result<(Option<JournalHeader>, Vec<TraceEvent>)> {
    let contents = std::fs::read_to_string(path)?;
    let mut header = None;
    let mut events = Vec::new();
    for (lineno, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal line {}: {e}", lineno + 1),
            )
        })?;
        if lineno == 0 {
            if let Some(version) = value.get("v").and_then(|v| v.as_u64()) {
                header = Some(JournalHeader {
                    version,
                    schema: value
                        .get("schema")
                        .and_then(|v| v.as_str())
                        .unwrap_or("")
                        .to_string(),
                });
                continue;
            }
        }
        let event = parse_event(&value).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("journal line {}: {e}", lineno + 1),
            )
        })?;
        events.push(event);
    }
    Ok((header, events))
}

/// Merges journals from several processes into one event stream whose
/// span ids are globally unique and whose cross-process parent links
/// survive.
///
/// Span ids are process-local counters, so two journals routinely reuse
/// the same ids — across *and within* traces (two processes serving the
/// same trace advance their counters at similar rates, so a shard's own
/// span ids regularly collide with the router id its root carries as
/// wire parent). Each journal's spans are shifted by a per-journal
/// offset (the first journal keeps its ids), and a `parent_span_id` is
/// resolved among spans of the *same trace* only: a span's real parent
/// always shares its trace id, whether the link is intra-process or
/// arrived over the wire. Within the trace the own journal wins first —
/// but only if the candidate parent *started no later than the child*
/// (one process, one monotonic clock, so the comparison is sound; a
/// same-id span that starts afterwards is a descendant or a stranger,
/// and accepting it would cycle the tree). A candidate the own journal
/// cannot legitimately supply is looked up in the other journals, in
/// argument order — the cross-process case: a shard's root span carries
/// the router's forwarding span id, which the router's journal defines,
/// so the shard subtree hangs under the router hop. An id no journal
/// defines for the trace keeps its own journal's offset and surfaces as
/// an (unlinked) root. Parent id 0 stays 0.
///
/// The merged stream is re-sorted by timestamp (journals share the
/// wall clock), with starts before point events before ends on ties.
pub fn merge_journals(journals: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    if journals.len() <= 1 {
        return journals.first().cloned().unwrap_or_default();
    }
    // Per journal, per trace: span id -> start timestamp. (A span from
    // a truncated journal may only have its end record; its end
    // timestamp stands in so the span still resolves.)
    let starts: Vec<HashMap<&str, HashMap<u64, u64>>> = journals
        .iter()
        .map(|events| {
            let mut by_trace: HashMap<&str, HashMap<u64, u64>> = HashMap::new();
            for e in events {
                match e.kind {
                    EventKind::SpanStart => {
                        by_trace
                            .entry(&e.trace_id)
                            .or_default()
                            .insert(e.span_id, e.ts_us);
                    }
                    EventKind::SpanEnd => {
                        by_trace
                            .entry(&e.trace_id)
                            .or_default()
                            .entry(e.span_id)
                            .or_insert(e.ts_us);
                    }
                    EventKind::Event => {}
                }
            }
            by_trace
        })
        .collect();
    // Disjoint offsets: each journal's ids occupy (offset, offset+max].
    let mut offsets: Vec<u64> = Vec::with_capacity(journals.len());
    let mut next = 0u64;
    for events in journals {
        offsets.push(next);
        let max_id = events
            .iter()
            .map(|e| e.span_id.max(e.parent_span_id))
            .max()
            .unwrap_or(0);
        next = next.saturating_add(max_id);
    }
    let start_of = |journal: usize, trace: &str, id: u64| -> Option<u64> {
        starts[journal].get(trace).and_then(|m| m.get(&id)).copied()
    };
    let resolve_parent = |journal: usize, trace: &str, id: u64, anchor_ts: u64| -> u64 {
        if id == 0 {
            return 0;
        }
        if start_of(journal, trace, id).is_some_and(|parent_start| parent_start <= anchor_ts) {
            return id + offsets[journal];
        }
        for (other, offset) in offsets.iter().enumerate() {
            if other != journal && start_of(other, trace, id).is_some() {
                return id + offset;
            }
        }
        id + offsets[journal]
    };
    let mut merged: Vec<TraceEvent> = Vec::new();
    for (journal, events) in journals.iter().enumerate() {
        for event in events {
            let mut event = event.clone();
            // Anchor the temporal check at the owning span's start, not
            // this record's timestamp: a span's end record must resolve
            // to the same parent its start did.
            let anchor_ts =
                start_of(journal, &event.trace_id, event.span_id).unwrap_or(event.ts_us);
            event.parent_span_id =
                resolve_parent(journal, &event.trace_id, event.parent_span_id, anchor_ts);
            if event.span_id != 0 {
                event.span_id += offsets[journal];
            }
            merged.push(event);
        }
    }
    merged.sort_by_key(|e| {
        let rank = match e.kind {
            EventKind::SpanStart => 0u8,
            EventKind::Event => 1,
            EventKind::SpanEnd => 2,
        };
        (e.ts_us, rank, e.span_id)
    });
    merged
}

/// One reconstructed span with its children and attached point events.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span's id.
    pub span_id: u64,
    /// The span's name.
    pub name: String,
    /// Start timestamp (µs since process epoch).
    pub start_us: u64,
    /// Total duration in µs (from the `dur_us` field of `SpanEnd`, or
    /// last-seen-timestamp minus start for spans that never closed).
    pub total_us: u64,
    /// Whether a matching `SpanEnd` was seen.
    pub closed: bool,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
    /// Point events attached to this span, in order.
    pub events: Vec<TraceEvent>,
}

impl SpanNode {
    /// Time spent in this span itself: total minus children's totals
    /// (saturating, since clocks of overlapping children can exceed the
    /// parent when jobs run in parallel).
    pub fn self_us(&self) -> u64 {
        let child_total: u64 = self.children.iter().map(|c| c.total_us).sum();
        self.total_us.saturating_sub(child_total)
    }

    /// This node plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }
}

/// All spans that share one trace id.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id.
    pub trace_id: String,
    /// Root spans (parent id 0, or parent never journaled).
    pub roots: Vec<SpanNode>,
    /// Point events whose span never appeared in the journal.
    pub orphan_events: Vec<TraceEvent>,
}

impl TraceTree {
    /// Slowest root's total, used to rank traces.
    pub fn total_us(&self) -> u64 {
        self.roots.iter().map(|r| r.total_us).max().unwrap_or(0)
    }

    /// Name of the first root span, if any.
    pub fn root_name(&self) -> &str {
        self.roots.first().map(|r| r.name.as_str()).unwrap_or("?")
    }

    /// Spans across all roots.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }
}

struct SpanBuild {
    name: String,
    parent: u64,
    start_us: u64,
    total_us: u64,
    closed: bool,
    events: Vec<TraceEvent>,
    children: Vec<u64>,
}

/// Groups events by trace id and reconstructs span trees, returned
/// slowest-trace first.
pub fn build_trees(events: &[TraceEvent]) -> Vec<TraceTree> {
    let mut order: Vec<&str> = Vec::new();
    let mut by_trace: HashMap<&str, Vec<&TraceEvent>> = HashMap::new();
    for event in events {
        let entry = by_trace.entry(&event.trace_id).or_default();
        if entry.is_empty() {
            order.push(&event.trace_id);
        }
        entry.push(event);
    }
    let mut trees: Vec<TraceTree> = order
        .iter()
        .map(|trace_id| build_one(trace_id, &by_trace[trace_id]))
        .collect();
    trees.sort_by_key(|tree| std::cmp::Reverse(tree.total_us()));
    trees
}

fn build_one(trace_id: &str, events: &[&TraceEvent]) -> TraceTree {
    let mut spans: HashMap<u64, SpanBuild> = HashMap::new();
    let mut root_ids: Vec<u64> = Vec::new();
    let mut orphan_events = Vec::new();
    let mut last_ts = 0u64;
    for event in events {
        last_ts = last_ts.max(event.ts_us);
        match event.kind {
            EventKind::SpanStart => {
                spans.insert(
                    event.span_id,
                    SpanBuild {
                        name: event.name.clone(),
                        parent: event.parent_span_id,
                        start_us: event.ts_us,
                        total_us: 0,
                        closed: false,
                        events: Vec::new(),
                        children: Vec::new(),
                    },
                );
            }
            EventKind::SpanEnd => {
                let dur = event
                    .fields
                    .iter()
                    .find(|(k, _)| k == "dur_us")
                    .and_then(|(_, v)| v.as_u64());
                if let Some(span) = spans.get_mut(&event.span_id) {
                    span.closed = true;
                    span.total_us =
                        dur.unwrap_or_else(|| event.ts_us.saturating_sub(span.start_us));
                } else {
                    // SpanEnd without a start (start dropped by a ring
                    // overflow): synthesize a flat span.
                    spans.insert(
                        event.span_id,
                        SpanBuild {
                            name: event.name.clone(),
                            parent: event.parent_span_id,
                            start_us: event.ts_us.saturating_sub(dur.unwrap_or(0)),
                            total_us: dur.unwrap_or(0),
                            closed: true,
                            events: Vec::new(),
                            children: Vec::new(),
                        },
                    );
                }
            }
            EventKind::Event => {
                if let Some(span) = spans.get_mut(&event.span_id) {
                    span.events.push((*event).clone());
                } else {
                    orphan_events.push((*event).clone());
                }
            }
        }
    }
    // Close still-open spans against the last timestamp seen, then link
    // children to parents.
    let ids: Vec<u64> = spans.keys().copied().collect();
    for id in &ids {
        let span = spans.get_mut(id).expect("span present");
        if !span.closed {
            span.total_us = last_ts.saturating_sub(span.start_us);
        }
    }
    for id in &ids {
        let parent = spans[id].parent;
        if parent != 0 && spans.contains_key(&parent) {
            spans
                .get_mut(&parent)
                .expect("parent present")
                .children
                .push(*id);
        } else {
            root_ids.push(*id);
        }
    }
    root_ids.sort_by_key(|id| spans[id].start_us);
    let roots = root_ids
        .iter()
        .map(|id| assemble(*id, &spans))
        .collect();
    TraceTree {
        trace_id: trace_id.to_string(),
        roots,
        orphan_events,
    }
}

fn assemble(id: u64, spans: &HashMap<u64, SpanBuild>) -> SpanNode {
    let span = &spans[&id];
    let mut child_ids = span.children.clone();
    child_ids.sort_by_key(|c| spans[c].start_us);
    SpanNode {
        span_id: id,
        name: span.name.clone(),
        start_us: span.start_us,
        total_us: span.total_us,
        closed: span.closed,
        children: child_ids.iter().map(|c| assemble(*c, spans)).collect(),
        events: span.events.clone(),
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}ms", us as f64 / 1000.0)
}

/// Renders the top-`top` slowest traces as indented span trees with
/// total and self times.
pub fn render_report(trees: &[TraceTree], top: usize) -> String {
    let mut out = String::new();
    let total_spans: usize = trees.iter().map(TraceTree::span_count).sum();
    out.push_str(&format!(
        "{} trace(s), {} span(s); showing {} slowest\n",
        trees.len(),
        total_spans,
        top.min(trees.len())
    ));
    for tree in trees.iter().take(top) {
        out.push_str(&format!(
            "\ntrace {}  root {}  total {}\n",
            tree.trace_id,
            tree.root_name(),
            fmt_ms(tree.total_us())
        ));
        for root in &tree.roots {
            render_span(&mut out, root, 1);
        }
        for event in &tree.orphan_events {
            out.push_str(&format!(
                "  · [{}] {}{}\n",
                event.severity.as_str(),
                event.name,
                fmt_fields(&event.fields)
            ));
        }
    }
    out
}

fn render_span(out: &mut String, span: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    let name_width = 36usize.saturating_sub(indent.len());
    out.push_str(&format!(
        "{indent}{:<name_width$} total {:>10}  self {:>10}{}\n",
        span.name,
        fmt_ms(span.total_us),
        fmt_ms(span.self_us()),
        if span.closed { "" } else { "  (unclosed)" }
    ));
    for event in &span.events {
        out.push_str(&format!(
            "{indent}  · [{}] {}{}\n",
            event.severity.as_str(),
            event.name,
            fmt_fields(&event.fields)
        ));
    }
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

fn fmt_fields(fields: &[(String, FieldValue)]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!(" {{{}}}", body.join(", "))
}

/// Renders collapsed stacks ("root;child;leaf self_us"), aggregated
/// across all traces — feed straight into `flamegraph.pl`.
pub fn collapsed_stacks(trees: &[TraceTree]) -> String {
    let mut totals: HashMap<String, u64> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for tree in trees {
        for root in &tree.roots {
            collapse(root, String::new(), &mut totals, &mut order);
        }
    }
    order.sort_by(|a, b| totals[b].cmp(&totals[a]).then_with(|| a.cmp(b)));
    let mut out = String::new();
    for stack in order {
        out.push_str(&format!("{stack} {}\n", totals[&stack]));
    }
    out
}

fn collapse(
    span: &SpanNode,
    prefix: String,
    totals: &mut HashMap<String, u64>,
    order: &mut Vec<String>,
) {
    let stack = if prefix.is_empty() {
        span.name.clone()
    } else {
        format!("{prefix};{}", span.name)
    };
    let entry = totals.entry(stack.clone()).or_insert_with(|| {
        order.push(stack.clone());
        0
    });
    *entry += span.self_us();
    for child in &span.children {
        collapse(child, stack.clone(), totals, order);
    }
}

/// One-line rendering of an event, used by `smith85 trace follow`.
pub fn render_event_line(event: &TraceEvent) -> String {
    format!(
        "{:>12} {:<10} [{:<5}] trace={} span={} parent={} {}{}",
        event.ts_us,
        event.kind.as_str(),
        event.severity.as_str(),
        event.trace_id,
        event.span_id,
        event.parent_span_id,
        event.name,
        fmt_fields(&event.fields)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RingJournal, SinkHandle, TraceContext};

    fn simulated_journal() -> Vec<TraceEvent> {
        let journal = std::sync::Arc::new(RingJournal::new(1, 1024));
        let sink = SinkHandle::new(journal.clone());
        {
            let root = TraceContext::root_with_id(sink.clone(), "fast", "request", vec![]);
            let _inner = root.ctx().child("exec", vec![]);
        }
        {
            let root = TraceContext::root_with_id(sink, "slow", "request", vec![]);
            {
                let inner = root.ctx().child("exec", vec![]);
                let _leaf = inner
                    .ctx()
                    .child("pool_materialize", vec![("bytes".into(), 128u64.into())]);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            root.ctx()
                .event(Severity::Info, "access_log", vec![("outcome".into(), "ok".into())]);
        }
        journal.snapshot()
    }

    #[test]
    fn trees_rebuild_parentage_and_rank_slowest_first() {
        let events = simulated_journal();
        let trees = build_trees(&events);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace_id, "slow", "slowest trace ranks first");
        let root = &trees[0].roots[0];
        assert_eq!(root.name, "request");
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.children[0].name, "exec");
        assert_eq!(root.children[0].children[0].name, "pool_materialize");
        assert!(root.total_us >= 5000, "slept 5ms, total {}us", root.total_us);
        assert!(root.closed);
        assert_eq!(root.events.len(), 1, "access_log attached to root");
        // Self-time identity: parent self + children totals == parent total.
        let exec = &root.children[0];
        assert_eq!(
            exec.self_us() + exec.children[0].total_us,
            exec.total_us
        );
    }

    #[test]
    fn report_renders_tree_with_self_times_and_events() {
        let events = simulated_journal();
        let trees = build_trees(&events);
        let text = render_report(&trees, 10);
        assert!(text.contains("2 trace(s)"), "{text}");
        assert!(text.contains("trace slow"), "{text}");
        assert!(text.contains("pool_materialize"), "{text}");
        assert!(text.contains("self"), "{text}");
        assert!(text.contains("access_log"), "{text}");
        assert!(text.contains("outcome=ok"), "{text}");
    }

    #[test]
    fn collapsed_stacks_aggregate_across_traces() {
        let events = simulated_journal();
        let trees = build_trees(&events);
        let text = collapsed_stacks(&trees);
        assert!(
            text.contains("request;exec;pool_materialize "),
            "{text}"
        );
        // Both traces contribute to the shared request;exec frame.
        let line = text
            .lines()
            .find(|l| l.starts_with("request;exec "))
            .expect("aggregated frame");
        let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        let trees_exec_self: u64 = trees
            .iter()
            .map(|t| t.roots[0].children[0].self_us())
            .sum();
        assert_eq!(value, trees_exec_self);
    }

    fn span_pair(
        trace: &str,
        span: u64,
        parent: u64,
        name: &str,
        start: u64,
        end: u64,
    ) -> Vec<TraceEvent> {
        let mk = |ts, kind, fields: Vec<(String, FieldValue)>| TraceEvent {
            ts_us: ts,
            kind,
            severity: Severity::Info,
            name: name.to_string(),
            trace_id: Arc::from(trace),
            span_id: span,
            parent_span_id: parent,
            fields,
        };
        vec![
            mk(start, EventKind::SpanStart, vec![]),
            mk(
                end,
                EventKind::SpanEnd,
                vec![("dur_us".into(), FieldValue::U64(end - start))],
            ),
        ]
    }

    #[test]
    fn merged_journals_link_shard_roots_under_router_hops() {
        // Router journal: a root with two hedged forward hops. Span ids
        // 1..3 in the router's process-local namespace.
        let mut router = Vec::new();
        router.extend(span_pair("t1", 1, 0, "router_request", 10, 100));
        router.extend(span_pair("t1", 2, 1, "router_forward", 20, 60));
        router.extend(span_pair("t1", 3, 1, "router_forward", 30, 90));
        // Shard journal: its root carries the router's hedge-hop span id
        // (3) as wire parent, and its own ids collide with the router's.
        let mut shard = Vec::new();
        shard.extend(span_pair("t1", 1, 3, "request", 40, 80));
        shard.extend(span_pair("t1", 2, 1, "exec", 45, 70));

        let merged = merge_journals(&[router.clone(), shard.clone()]);
        let trees = build_trees(&merged);
        assert_eq!(trees.len(), 1, "one trace id, one tree");
        let tree = &trees[0];
        assert_eq!(tree.roots.len(), 1, "single linked root, not four");
        let root = &tree.roots[0];
        assert_eq!(root.name, "router_request");
        assert_eq!(root.span_id, 1, "first journal keeps its span ids");
        assert_eq!(tree.span_count(), 5);
        // Hedged hops are siblings under the router root.
        assert_eq!(root.children.len(), 2);
        assert!(root.children.iter().all(|c| c.name == "router_forward"));
        // The shard subtree hangs under the hop that actually reached it
        // (span 3, the later hedge), and its intra-process parentage —
        // despite the id collision — stays intact.
        let winner = root.children.iter().find(|c| c.span_id == 3).unwrap();
        assert_eq!(winner.children.len(), 1);
        assert_eq!(winner.children[0].name, "request");
        assert_eq!(winner.children[0].children[0].name, "exec");
        let loser = root.children.iter().find(|c| c.span_id != 3).unwrap();
        assert!(loser.children.is_empty(), "unanswered hedge has no subtree");

        // Merge is order-tolerant on the parent link: an id undefined
        // everywhere becomes an unlinked root instead of vanishing.
        let stray = span_pair("t1", 7, 42, "orphan", 5, 6);
        let merged = merge_journals(&[router, shard, stray]);
        let trees = build_trees(&merged);
        assert_eq!(trees[0].roots.len(), 2);
        assert!(trees[0].roots.iter().any(|r| r.name == "orphan"));
    }

    #[test]
    fn merged_journals_resolve_wire_parents_per_trace_not_per_journal() {
        // The failure mode this pins: a busy shard journal holds many
        // traces, so the router's wire parent id (here 3) is almost
        // always also *some* unrelated span id in the shard's own
        // journal — just in a different trace. Journal-scoped
        // resolution would capture the link locally and the shard
        // subtree would fall off its router hop.
        let mut router = Vec::new();
        router.extend(span_pair("t1", 2, 0, "router_request", 10, 100));
        router.extend(span_pair("t1", 3, 2, "router_forward", 20, 90));
        let mut shard = Vec::new();
        // Unrelated earlier trace in the shard process that happens to
        // use span id 3.
        shard.extend(span_pair("t0", 3, 0, "request", 1, 5));
        // The trace under test: wire parent 3 must resolve to the
        // router's hop, not to the shard's own (t0) span 3.
        shard.extend(span_pair("t1", 4, 3, "request", 30, 80));
        shard.extend(span_pair("t1", 5, 4, "exec", 40, 60));

        let merged = merge_journals(&[router, shard]);
        let trees = build_trees(&merged);
        let t1 = trees
            .iter()
            .find(|t| &*t.trace_id == "t1")
            .expect("tree for t1");
        assert_eq!(t1.roots.len(), 1, "one linked root: {t1:?}");
        let root = &t1.roots[0];
        assert_eq!(root.name, "router_request");
        let hop = &root.children[0];
        assert_eq!(hop.name, "router_forward");
        assert_eq!(hop.children.len(), 1, "shard root hangs under the hop");
        assert_eq!(hop.children[0].name, "request");
        assert_eq!(hop.children[0].children[0].name, "exec");
        // The unrelated t0 trace is untouched and still stands alone.
        let t0 = trees
            .iter()
            .find(|t| &*t.trace_id == "t0")
            .expect("tree for t0");
        assert_eq!(t0.roots.len(), 1);
        assert_eq!(t0.roots[0].name, "request");
    }

    #[test]
    fn merged_journals_reject_own_descendant_as_wire_parent() {
        // Same-trace id collision, observed live: the shard's own span
        // counter passes through the router's forward id (8) while
        // serving this very trace, so the shard journal defines span 8
        // in the SAME trace — as a grandchild of the root whose wire
        // parent is 8. Linking the root to its own grandchild cycles
        // the tree; the temporal guard (a parent cannot start after its
        // child) must push resolution to the router journal instead.
        let mut router = Vec::new();
        router.extend(span_pair("t1", 7, 0, "router_request", 10, 200));
        router.extend(span_pair("t1", 8, 7, "router_forward", 20, 190));
        let mut shard = Vec::new();
        shard.extend(span_pair("t1", 5, 8, "request", 100, 180));
        shard.extend(span_pair("t1", 6, 5, "simulate_workload", 110, 170));
        shard.extend(span_pair("t1", 8, 6, "simulate_unified", 120, 160));

        let merged = merge_journals(&[router, shard]);
        let trees = build_trees(&merged);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.roots.len(), 1, "one linked root: {tree:?}");
        assert_eq!(tree.span_count(), 5, "no span may vanish in a cycle");
        let root = &tree.roots[0];
        assert_eq!(root.name, "router_request");
        let hop = &root.children[0];
        assert_eq!(hop.name, "router_forward");
        let request = &hop.children[0];
        assert_eq!(request.name, "request");
        let workload = &request.children[0];
        assert_eq!(workload.name, "simulate_workload");
        assert_eq!(workload.children[0].name, "simulate_unified");
    }

    #[test]
    fn deeply_nested_journal_line_is_invalid_data_not_a_crash() {
        let path = std::env::temp_dir().join(format!(
            "smith85-tracelog-deep-{}-{}.ndjson",
            std::process::id(),
            crate::now_us()
        ));
        let header = r#"{"v":1,"schema":"smith85-tracelog-v1"}"#;
        std::fs::write(&path, format!("{header}\n{}\n", "[".repeat(100_000)))
            .expect("write journal");
        let err = read_journal(&path).expect_err("a 100,000-deep line must not parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(message.starts_with("journal line 2:"), "{message}");
        assert!(message.contains("nesting too deep"), "{message}");
    }

    #[test]
    fn unclosed_spans_are_flagged_not_lost() {
        let events = vec![TraceEvent {
            ts_us: 10,
            kind: EventKind::SpanStart,
            severity: Severity::Info,
            name: "hung".to_string(),
            trace_id: Arc::from("t"),
            span_id: 99,
            parent_span_id: 0,
            fields: vec![],
        }];
        let trees = build_trees(&events);
        assert_eq!(trees.len(), 1);
        assert!(!trees[0].roots[0].closed);
        let text = render_report(&trees, 1);
        assert!(text.contains("(unclosed)"), "{text}");
    }
}
