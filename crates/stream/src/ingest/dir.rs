//! Directory-of-CSVs source: one stream per `*.csv` file.

use super::csv::CsvFileSource;
use super::source::{Source, SourceError, SourceItem, SourceStatus, StreamCursor};
use crate::telemetry::MetricsRegistry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Most files a non-watching [`DirSource`] holds open at once, well
/// under the common limit of 1,024 descriptors per process.
const MAX_OPEN_FILES: usize = 512;

/// Completed bags after which a poll ends its slice of the pass (at the
/// end of the file that reached it). A pipeline routes each slice
/// before it reads the next, so this, not the pass, bounds the bags
/// read but not yet queued. On 256 files of 24-row bags, a 512-line
/// pass reads about 5,460 bags; 128-bag slices with 64-bag worker
/// queues cut the median ingest→emit latency from 159–193 ms to
/// 15–19 ms at the same throughput (2 workers on 2 vCPUs).
const SLICE_BAGS: usize = 128;

/// A directory of CSV files, each feeding the stream named after its
/// file stem (`sensors/press-04.csv` → stream `press-04`). Each pass
/// polls every file once, in name order within each scan's finds; the
/// directory is re-scanned once per pass, so files that appear while
/// the session runs join the fleet at the next pass. Each file inherits
/// the full per-file resume protocol of [`CsvFileSource`] (content
/// addressing, hold-back, rotation handling), and a malformed file
/// quarantines only its own stream.
///
/// A pass is read in slices: a poll stops after the file that brings it
/// to 128 completed bags (`SLICE_BAGS`) and answers
/// [`SourceStatus::More`] until the pass is done. The pass's last slice
/// returns the status of the whole pass.
///
/// Without `watch`, a file is closed once drained, and at most 512
/// files (`MAX_OPEN_FILES`) are open at any time: a file not opened
/// yet waits for a later pass, when a drained one has made room. So a
/// directory of more files than the process may open is still read in
/// full. Watched files stay open to be tailed.
pub struct DirSource {
    dir: String,
    /// Discovered file sources; the flag marks a file taken out of
    /// service by an I/O failure (its stream is quarantined, its cursor
    /// still reported).
    files: Vec<(CsvFileSource, bool)>,
    known: HashSet<String>,
    /// Keep the directory (and its files) alive at EOF — a watch/serve
    /// session — instead of finishing once every file is drained.
    watch: bool,
    /// Cursors stashed for files that have not appeared yet.
    resume: HashMap<String, StreamCursor>,
    /// Registry stashed so files discovered later are instrumented too.
    telemetry: Option<MetricsRegistry>,
    /// The pass in progress: `None` between passes.
    pass: Option<Pass>,
}

/// Where a pass stands between its slices.
struct Pass {
    /// Index in `files` of the next file to poll.
    next: usize,
    /// Files holding a descriptor.
    open: usize,
    /// Some file consumed input, or waits for an open-file slot.
    active: bool,
    /// Some file may still produce.
    live: bool,
}

impl DirSource {
    /// Source over every `*.csv` in `dir`; `watch` keeps the scan loop
    /// and every file alive at EOF (as in [`CsvFileSource::new`]).
    pub fn new(dir: impl Into<String>, watch: bool) -> Self {
        DirSource {
            dir: dir.into(),
            files: Vec::new(),
            known: HashSet::new(),
            watch,
            resume: HashMap::new(),
            telemetry: None,
            pass: None,
        }
    }

    /// Discover new `*.csv` files (sorted, so stream creation order is
    /// deterministic for a fixed directory state).
    fn scan(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SourceError::Io(format!("{}: {e}", self.dir)))?;
        let mut fresh: Vec<(String, String)> = Vec::new(); // (stream, path)
        for entry in entries {
            let entry = entry.map_err(|e| SourceError::Io(format!("{}: {e}", self.dir)))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("csv") {
                continue;
            }
            let path_str = path.to_string_lossy().into_owned();
            // A directory (or FIFO, …) named *.csv is not a source:
            // opening it "succeeds" on Linux and only the first read
            // fails. Skip it visibly, once. std::fs::metadata follows
            // symlinks, so a symlinked CSV still counts as a file.
            if !std::fs::metadata(&path)
                .map(|m| m.is_file())
                .unwrap_or(false)
            {
                if self.known.insert(path_str.clone()) {
                    out.push(SourceItem::Note(format!(
                        "note: skipping {path_str}: not a regular file"
                    )));
                }
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if self.known.insert(path_str.clone()) {
                fresh.push((stem.to_string(), path_str));
            }
        }
        fresh.sort();
        for (stream, path) in fresh {
            let mut src = CsvFileSource::new(path, stream, self.watch);
            src.restore(&self.resume);
            if let Some(registry) = &self.telemetry {
                src.attach_telemetry(registry);
            }
            self.files.push((src, false));
        }
        Ok(())
    }
}

impl Source for DirSource {
    fn origin(&self) -> &str {
        &self.dir
    }

    fn poll(&mut self, out: &mut Vec<SourceItem>) -> Result<SourceStatus, SourceError> {
        let mut pass = match self.pass.take() {
            Some(pass) => pass,
            None => {
                self.scan(out)?;
                Pass {
                    next: 0,
                    open: self.files.iter().filter(|(file, _)| file.is_open()).count(),
                    active: false,
                    live: false,
                }
            }
        };
        let mut bags = 0;
        while bags < SLICE_BAGS && pass.next < self.files.len() {
            let (file, dead) = &mut self.files[pass.next];
            pass.next += 1;
            if *dead {
                continue;
            }
            if !self.watch && pass.open >= MAX_OPEN_FILES && file.awaits_open() {
                // Input remains; it is read once a slot frees up.
                pass.active = true;
                continue;
            }
            let was_open = file.is_open();
            let from = out.len();
            let polled = file.poll(out);
            pass.open = pass.open + usize::from(file.is_open()) - usize::from(was_open);
            bags += out[from..]
                .iter()
                .filter(|item| matches!(item, SourceItem::Bag { .. }))
                .count();
            match polled {
                Ok(SourceStatus::Active | SourceStatus::More) => {
                    pass.active = true;
                    pass.live = true;
                }
                Ok(SourceStatus::Idle) => pass.live = true,
                Ok(SourceStatus::Done) => {}
                Err(e) => {
                    // One file's I/O failure (deleted mid-rotation,
                    // permissions) quarantines its stream only; the
                    // rest of the directory keeps flowing. Its cursor
                    // is still reported, so a restart can resume it.
                    *dead = true;
                    out.push(SourceItem::Quarantine {
                        stream: file.stream().clone(),
                        error: e,
                    });
                }
            }
        }
        if pass.next < self.files.len() {
            self.pass = Some(pass);
            return Ok(SourceStatus::More);
        }
        Ok(if pass.active {
            SourceStatus::Active
        } else if pass.live || self.watch {
            SourceStatus::Idle
        } else {
            SourceStatus::Done
        })
    }

    fn cursors(&self, out: &mut Vec<(Arc<str>, StreamCursor)>) {
        for (file, _) in &self.files {
            file.cursors(out);
        }
    }

    fn restore(&mut self, cursors: &HashMap<String, StreamCursor>) {
        self.resume = cursors.clone();
        for (file, _) in &mut self.files {
            file.restore(cursors);
        }
    }

    fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        for (file, _) in &mut self.files {
            file.attach_telemetry(registry);
        }
        self.telemetry = Some(registry.clone());
    }

    fn finish(&mut self, out: &mut Vec<SourceItem>) -> Result<(), SourceError> {
        for (file, dead) in &mut self.files {
            if !*dead {
                file.finish(out)?;
            }
        }
        Ok(())
    }
}
