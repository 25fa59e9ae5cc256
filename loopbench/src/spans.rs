//! Span recording for the traced run.
//!
//! A span is recorded in the benchmark's own code around each public call
//! into a layer of the program: its name, start and end (ns since the run
//! began), the span that caused it, the kernel or request it belongs to,
//! and how many calls it covers (a batched sample covers several).  Spans
//! stay in memory and are written out when the benchmark ends.  When the
//! recorder is disabled, opening a span costs one branch.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span was recorded at, e.g. `vm.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Kernel index (figures) or request index (serve).
    pub key: u32,
    /// Public calls the span covers.
    pub calls: u32,
    /// Outcome flag, e.g. 1 for a cache hit.
    pub flag: u8,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }

    /// Duration in µs per covered call.
    pub fn us_per_call(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3 / self.calls.max(1) as f64
    }
}

/// An open span handle; close it with [`Recorder::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    start: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept per run; later spans are counted as dropped.
const CAPACITY: usize = 500_000;

impl Recorder {
    /// A recorder, initially enabled or not.
    pub fn new(enabled: bool) -> Self {
        Recorder { origin: Instant::now(), enabled, spans: Vec::new(), dropped: 0 }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<Open>, key: usize) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return None;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map_or(ROOT, |p| p.index),
            key: key as u32,
            calls: 1,
            flag: 0,
        });
        Some(Open { index, start })
    }

    /// Close a span opened by [`Recorder::open`], covering `calls` calls.
    pub fn close(&mut self, open: Option<Open>, calls: usize, flag: u8) {
        if let Some(o) = open {
            let end = self.now();
            let s = &mut self.spans[o.index as usize];
            debug_assert_eq!(s.start, o.start);
            s.end = end;
            s.calls = calls as u32;
            s.flag = flag;
        }
    }

    /// Every recorded span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans recorded since the store held `first` spans.
    pub fn since(&self, first: usize) -> &[Span] {
        &self.spans[first.min(self.spans.len())..]
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans not kept because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write every span as one tab-separated line:
    /// `index name start_ns end_ns parent key calls flag`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tkey\tcalls\tflag")?;
        for (k, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            let _ = writeln!(
                line,
                "{k}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.key, s.calls, s.flag
            );
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}
