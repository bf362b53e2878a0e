//! An in-memory [`TraceSource`]: a trace drained once from another source
//! and replayed without file parsing, so the measurement and
//! trace-driven-simulation layers can be timed on their own.

use std::sync::Arc;

use snoop_workload::trace::{TraceRecord, TraceSource};

/// Replays recorded per-processor streams. Clones share the records and
/// start from the beginning.
#[derive(Debug, Clone)]
pub struct MemTrace {
    records: Arc<Vec<Vec<TraceRecord>>>,
    positions: Vec<usize>,
    words_per_block: u64,
    tau: Option<f64>,
}

impl MemTrace {
    /// Drains every processor's stream of `source` (which must be finite).
    pub fn drain<S: TraceSource>(source: &mut S) -> MemTrace {
        let records: Vec<Vec<TraceRecord>> = (0..source.processors())
            .map(|p| std::iter::from_fn(|| source.next_for(p)).collect())
            .collect();
        MemTrace {
            positions: vec![0; records.len()],
            records: Arc::new(records),
            words_per_block: source.words_per_block(),
            tau: source.measured_tau(),
        }
    }

    /// Total records over all processors.
    pub fn len(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy positioned at the start of every stream.
    pub fn replay(&self) -> MemTrace {
        MemTrace {
            positions: vec![0; self.records.len()],
            ..self.clone()
        }
    }
}

impl TraceSource for MemTrace {
    fn processors(&self) -> usize {
        self.records.len()
    }

    fn words_per_block(&self) -> u64 {
        self.words_per_block
    }

    fn next_for(&mut self, processor: usize) -> Option<TraceRecord> {
        let record = *self
            .records
            .get(processor)?
            .get(self.positions[processor])?;
        self.positions[processor] += 1;
        Some(record)
    }

    fn remaining_hint(&self, processor: usize) -> Option<u64> {
        let stream = self.records.get(processor)?;
        Some((stream.len() - self.positions[processor]) as u64)
    }

    fn measured_tau(&self) -> Option<f64> {
        self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_sim::trace_mode::{simulate_trace_source, TraceDriveConfig};
    use snoop_workload::ingest::{discover_processor_files, FileTrace, IngestOptions, TraceFormat};
    use snoop_workload::measure::{measure_source, MeasureConfig};

    fn open() -> FileTrace {
        let first = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../scenarios/traces/mesi_small_p0.trace");
        let paths = discover_processor_files(&first);
        assert_eq!(paths.len(), 4);
        FileTrace::open(&paths, TraceFormat::Assignment, IngestOptions::default()).unwrap()
    }

    #[test]
    fn replays_the_file_trace_exactly() {
        let mut file = open();
        let counts = file.record_counts().to_vec();
        let mem = MemTrace::drain(&mut file);
        assert_eq!(mem.len() as u64, counts.iter().sum::<u64>());
        assert_eq!(mem.measured_tau(), open().measured_tau());

        let config = MeasureConfig {
            windows: 4,
            ..MeasureConfig::default()
        };
        let from_file = measure_source(&mut open(), &config).unwrap();
        let from_mem = measure_source(&mut mem.replay(), &config).unwrap();
        assert_eq!(format!("{from_file:?}"), format!("{from_mem:?}"));

        let shortest = *counts.iter().min().unwrap() as usize;
        let mut drive = TraceDriveConfig::new(4, ModSet::new());
        drive.tau = from_file.params.tau;
        drive.warmup_references = shortest / 10;
        drive.measured_references = shortest - shortest / 10;
        let sim_file = simulate_trace_source(&drive, open()).unwrap();
        let sim_mem = simulate_trace_source(&drive, mem.replay()).unwrap();
        assert_eq!(sim_file, sim_mem);
    }
}
