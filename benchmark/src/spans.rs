//! Wall-clock spans at nanosecond resolution, recorded by the benchmark's
//! own code around its calls into the program, kept in memory and written
//! as a chrome-trace file when the run ends. (`h2util::metrics::Histogram`
//! floors at one microsecond; a warm STAT takes less than half of one.)

use std::fmt::Write as _;
use std::time::Instant;

use h2util::clock::wall_now;

/// One closed span. Nesting is by containment on one track, which is how
/// chrome-trace viewers draw complete (`"ph":"X"`) events.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Track: 0 is the main thread (run, rounds, maintenance), `c + 1`
    /// client `c`.
    pub track: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span log of one thread, timed against an origin shared by all.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    track: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, track: u32) -> Self {
        Recorder {
            origin,
            track,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        wall_now().duration_since(self.origin).as_nanos() as u64
    }

    /// Log a span from `start_ns` to now (both as [`now`](Self::now) counts)
    /// and return its duration.
    pub fn close(&mut self, name: &'static str, start_ns: u64) -> u64 {
        let end_ns = self.now();
        self.span(name, start_ns, end_ns);
        end_ns - start_ns
    }

    pub fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            track: self.track,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
    }
}

/// Render spans as a chrome-trace JSON document (timestamps in
/// microseconds with three decimals, i.e. nanoseconds).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        // Span names are identifiers from this crate; nothing to escape.
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03}}}{sep}",
            s.name,
            s.track,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_keeps_nanoseconds() {
        let spans = [
            Span {
                name: "run",
                track: 0,
                start_ns: 0,
                dur_ns: 2_000_440,
            },
            Span {
                name: "stat",
                track: 1,
                start_ns: 1_234_567,
                dur_ns: 440,
            },
        ];
        let json = chrome_trace(&spans);
        assert!(json.contains(
            "\"name\":\"stat\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1234.567,\"dur\":0.440}"
        ));
        assert!(json.contains("\"dur\":2000.440},"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
