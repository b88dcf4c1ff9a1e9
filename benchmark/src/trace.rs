//! Harness-side tracing: a span around every call the harness makes into
//! a layer's public function. Spans inside the product are a later issue
//! (ROADMAP item 4); these sit at the boundary the benchmark can see.
//!
//! Workloads are generic over [`Probe`], so the untraced instantiation
//! ([`NoProbe`]) compiles to nothing and end-to-end metrics never pay for
//! the instrumentation. The traced instantiation ([`SpanProbe`]) keeps
//! span records in a buffer allocated up front and writes them as
//! chrome://tracing JSON when the run ends.

use std::time::Instant;

use crate::emit::JsonWriter;
use crate::stats::quantile;

/// The boundaries the harness records, named `<layer>.<fn>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Trial,
    Op,
    MailboxCall,
    BytesSubmit,
    BytesWaitAny,
    /// Not a code region: submit → redeem of one pipelined call, fed
    /// through [`Probe::sample`].
    BytesCall,
    MemcachedServe,
    MemcachedParse,
    StoragePut,
    StorageGet,
}

impl Span {
    pub const ALL: [Span; 10] = [
        Span::Trial,
        Span::Op,
        Span::MailboxCall,
        Span::BytesSubmit,
        Span::BytesWaitAny,
        Span::BytesCall,
        Span::MemcachedServe,
        Span::MemcachedParse,
        Span::StoragePut,
        Span::StorageGet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Trial => "harness.trial",
            Span::Op => "harness.op",
            Span::MailboxCall => "hotcalls.rt.mailbox.call",
            Span::BytesSubmit => "hotcalls.rt.bytes.submit",
            Span::BytesWaitAny => "hotcalls.rt.bytes.wait_any_with",
            Span::BytesCall => "hotcalls.rt.bytes.call",
            Span::MemcachedServe => "apps.memcached.serve",
            Span::MemcachedParse => "apps.memcached.parse_response",
            Span::StoragePut => "apps.storage.put",
            Span::StorageGet => "apps.storage.get",
        }
    }
}

pub trait Probe {
    /// Whether this probe records anything (lets a workload skip
    /// bookkeeping that only feeds samples).
    const ON: bool;
    type Token;
    /// Opens a span; the enclosing open span becomes its parent.
    fn enter(&mut self, span: Span, op: u64) -> Self::Token;
    fn exit(&mut self, token: Self::Token);
    /// Nanoseconds since the probe was created (0 when off).
    fn now_ns(&self) -> u64;
    /// Records a duration that is not a code region.
    fn sample(&mut self, span: Span, ns: u64);
}

/// The untraced run: every method is empty and inlines away.
#[derive(Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;
    type Token = ();
    #[inline(always)]
    fn enter(&mut self, _: Span, _: u64) {}
    #[inline(always)]
    fn exit(&mut self, (): ()) {}
    #[inline(always)]
    fn now_ns(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn sample(&mut self, _: Span, _: u64) {}
}

/// Span records kept for the chrome trace. Later spans are counted as
/// dropped; their durations still reach the per-span samples.
const RECORD_CAP: usize = 1 << 16;
/// Duration samples kept per span name (the most recent ones).
const SAMPLE_CAP: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Record {
    span: Span,
    op: u64,
    /// Index of the enclosing span's record, `u32::MAX` at the root or
    /// when the parent itself was dropped.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Samples {
    ns: Vec<u32>,
    next: usize,
}

#[derive(Debug)]
pub struct OpenSpan {
    span: Span,
    start_ns: u64,
    /// Reserved record slot, if the buffer had room.
    slot: Option<u32>,
}

#[derive(Debug)]
pub struct SpanProbe {
    epoch: Instant,
    records: Vec<Record>,
    dropped: u64,
    /// Record slots of the currently open spans, innermost last.
    open: Vec<u32>,
    samples: Vec<Samples>,
}

impl Default for SpanProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProbe {
    pub fn new() -> Self {
        SpanProbe {
            epoch: Instant::now(),
            records: Vec::with_capacity(RECORD_CAP),
            dropped: 0,
            open: Vec::with_capacity(8),
            samples: Span::ALL
                .iter()
                .map(|_| Samples {
                    ns: Vec::new(),
                    next: 0,
                })
                .collect(),
        }
    }

    /// Quantile of the recorded durations of `span`, in ns (0 if the
    /// workload never opened it).
    pub fn quantile_ns(&self, span: Span, q: f64) -> f64 {
        let v: Vec<f64> = self.samples[span as usize]
            .ns
            .iter()
            .map(|&x| x as f64)
            .collect();
        quantile(&v, q)
    }

    #[cfg(test)]
    pub fn count(&self, span: Span) -> usize {
        self.samples[span as usize].ns.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans as chrome://tracing JSON ("X" complete events,
    /// microsecond timestamps; `args` carries op id and parent index).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ns");
        w.key("otherData").begin_object();
        w.key("workload").string(workload);
        w.key("dropped_spans").number(self.dropped as f64);
        w.end_object();
        w.key("traceEvents").begin_array();
        for (i, r) in self.records.iter().enumerate() {
            let name = r.span.name();
            let layer = name.rsplit_once('.').map_or(name, |(l, _)| l);
            w.begin_object();
            w.key("name").string(name);
            w.key("cat").string(layer);
            w.key("ph").string("X");
            w.key("pid").number(1.0);
            w.key("tid").number(1.0);
            w.key("ts").number(r.start_ns as f64 / 1e3);
            w.key("dur")
                .number(r.end_ns.saturating_sub(r.start_ns) as f64 / 1e3);
            w.key("args").begin_object();
            w.key("id").number(i as f64);
            w.key("op").number(r.op as f64);
            if r.parent != u32::MAX {
                w.key("parent").number(r.parent as f64);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

impl Probe for SpanProbe {
    const ON: bool = true;
    type Token = OpenSpan;

    fn enter(&mut self, span: Span, op: u64) -> OpenSpan {
        let slot = if self.records.len() < RECORD_CAP {
            let parent = self.open.last().copied().unwrap_or(u32::MAX);
            self.records.push(Record {
                span,
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            Some((self.records.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        // A dropped span still occupies a stack level so `exit` pops
        // symmetrically; its children then see no parent.
        self.open.push(slot.unwrap_or(u32::MAX));
        // The clock is read last, so the bookkeeping above stays outside
        // the span.
        OpenSpan {
            span,
            start_ns: self.now_ns(),
            slot,
        }
    }

    fn exit(&mut self, token: OpenSpan) {
        let end_ns = self.now_ns();
        self.open.pop();
        if let Some(slot) = token.slot {
            let r = &mut self.records[slot as usize];
            debug_assert!(r.span == token.span);
            r.start_ns = token.start_ns;
            r.end_ns = end_ns;
        }
        self.sample(token.span, end_ns - token.start_ns);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sample(&mut self, span: Span, ns: u64) {
        let s = &mut self.samples[span as usize];
        let ns = u32::try_from(ns).unwrap_or(u32::MAX);
        if s.ns.len() < SAMPLE_CAP {
            s.ns.push(ns);
        } else {
            s.ns[s.next] = ns;
            s.next = (s.next + 1) % SAMPLE_CAP;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut p = SpanProbe::new();
        let outer = p.enter(Span::Op, 7);
        let inner = p.enter(Span::MemcachedServe, 7);
        p.exit(inner);
        p.exit(outer);
        assert_eq!(p.count(Span::Op), 1);
        assert_eq!(p.count(Span::MemcachedServe), 1);
        assert_eq!(p.records[1].parent, 0);
        assert_eq!(p.records[0].parent, u32::MAX);
        assert!(p.records[0].end_ns >= p.records[1].end_ns);
        let json = p.chrome_json("t");
        assert!(json.contains("\"name\":\"apps.memcached.serve\""));
        assert!(json.contains("\"cat\":\"apps.memcached\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn span_names_are_unique_and_well_formed() {
        for (i, a) in Span::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i, "ALL must list spans in declaration order");
            assert!(a.name().contains('.'));
            for b in &Span::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
