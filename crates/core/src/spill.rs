//! Out-of-core spill subsystem for the dynamic hybrid hash join.
//!
//! When the build side of a join does not fit the query's memory budget,
//! [`crate::hybrid`] evicts partitions to disk through this module and
//! restores them after the in-memory pass. The design follows the classic
//! Grace/hybrid hash join literature (and its modern robustness treatment in
//! "Design Trade-offs for a Robust Dynamic Hybrid Hash Join"): partitions
//! are written as *runs* of self-describing, checksummed frames so a reader
//! can detect torn writes, and everything lives under a per-query
//! [`SpillDir`] whose RAII guard removes the directory — and with it every
//! orphaned run — no matter how the query ends.
//!
//! # Spill-file format
//!
//! A spill file is a sequence of frames. Each frame is:
//!
//! ```text
//! [magic u32 = "JSP2"] [payload_len u32] [rows u32] [reserved u32]
//! [checksum u64] [payload: one encoded Batch]
//! ```
//!
//! The checksum is FNV-1a taken eight payload bytes per step (a byte-wise
//! tail), which is what `"JSP2"` changed over `"JSP1"`. The payload encodes
//! the batch column-by-column (type tag, optional validity mask, then the
//! values — fixed-width columns as one block, strings as per-value `u32`
//! length + UTF-8 bytes), all little-endian. Readers verify the magic, length, and
//! checksum of every frame and surface [`ExecError::SpillIo`] on any
//! mismatch or short read — corruption never panics and never produces
//! wrong rows.
//!
//! # Fault injection
//!
//! `JOINSTUDY_FAULT_IO=<op>:<kind>[:<nth>]` (op ∈ `create|write|read`,
//! kind ∈ `enospc|eio|short`) makes the nth matching I/O call fail with a
//! typed error, so tests and the CI fault matrix can prove that ENOSPC,
//! EIO, and truncated-frame conditions all unwind cleanly: typed error,
//! budget fully released, spill directory removed. Tests inside one process
//! use [`fault::set_for_test`] instead of the environment.

use joinstudy_exec::batch::{Batch, Validity};
use joinstudy_exec::context::{BudgetLease, QueryContext};
use joinstudy_exec::error::{ExecError, ExecResult};
use joinstudy_exec::metrics::{self, MemPhase};
use joinstudy_exec::progress::WaitState;
use joinstudy_storage::column::{ColumnData, StrColumn};
use joinstudy_storage::types::DataType;
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame magic: `"JSP2"` little-endian.
pub const FRAME_MAGIC: u32 = 0x3250_534a;
/// Fixed frame-header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 24;
/// Write-buffer size charged against the memory budget per open writer
/// ([`SpillWriter::create`]; [`SpillWriter::create_sized`] takes less when
/// the budget is tight).
pub const WRITE_BUF_BYTES: usize = 32 * 1024;

// ---------------------------------------------------------------- faults

/// Deterministic I/O fault injection (`JOINSTUDY_FAULT_IO`).
pub mod fault {
    use super::*;
    use std::sync::Mutex;

    /// Which spill I/O operation a fault targets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultOp {
        /// Directory or file creation (also file open-for-read).
        Create,
        /// A buffered flush to a spill file.
        Write,
        /// A frame read from a spill file.
        Read,
    }

    impl FaultOp {
        fn parse(s: &str) -> Option<FaultOp> {
            match s {
                "create" => Some(FaultOp::Create),
                "write" => Some(FaultOp::Write),
                "read" => Some(FaultOp::Read),
                _ => None,
            }
        }

        fn index(self) -> usize {
            match self {
                FaultOp::Create => 0,
                FaultOp::Write => 1,
                FaultOp::Read => 2,
            }
        }

        pub(crate) fn name(self) -> &'static str {
            match self {
                FaultOp::Create => "create",
                FaultOp::Write => "write",
                FaultOp::Read => "read",
            }
        }
    }

    /// What the injected failure looks like.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultKind {
        /// `ENOSPC`: no space left on device.
        Enospc,
        /// `EIO`: generic input/output error.
        Eio,
        /// A frame cut off mid-payload (only meaningful for reads).
        Short,
    }

    impl FaultKind {
        fn parse(s: &str) -> Option<FaultKind> {
            match s {
                "enospc" => Some(FaultKind::Enospc),
                "eio" => Some(FaultKind::Eio),
                "short" => Some(FaultKind::Short),
                _ => None,
            }
        }

        fn message(self) -> &'static str {
            match self {
                FaultKind::Enospc => "no space left on device (ENOSPC, injected)",
                FaultKind::Eio => "input/output error (EIO, injected)",
                FaultKind::Short => "short read: spill frame truncated (injected)",
            }
        }
    }

    /// One armed fault: the `nth` call of `op` (1-based) fails as `kind`.
    #[derive(Debug, Clone, Copy)]
    pub struct FaultSpec {
        pub op: FaultOp,
        pub kind: FaultKind,
        pub nth: u64,
    }

    impl FaultSpec {
        /// Parse `"op:kind[:nth]"`; `None` on any malformed input (faults
        /// must never be armed by accident).
        pub fn parse(s: &str) -> Option<FaultSpec> {
            let mut it = s.split(':');
            let op = FaultOp::parse(it.next()?)?;
            let kind = FaultKind::parse(it.next()?)?;
            let nth = match it.next() {
                Some(n) => n.parse().ok().filter(|&n| n > 0)?,
                None => 1,
            };
            if it.next().is_some() {
                return None;
            }
            Some(FaultSpec { op, kind, nth })
        }
    }

    struct FaultState {
        spec: Option<FaultSpec>,
        /// Calls seen per [`FaultOp::index`] since the spec was armed.
        counts: [u64; 3],
    }

    static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

    fn with_state<R>(f: impl FnOnce(&mut FaultState) -> R) -> R {
        let mut guard = STATE.lock().unwrap();
        let state = guard.get_or_insert_with(|| FaultState {
            spec: std::env::var("JOINSTUDY_FAULT_IO")
                .ok()
                .and_then(|s| FaultSpec::parse(&s)),
            counts: [0; 3],
        });
        f(state)
    }

    /// Arm (or with `None` disarm) a fault programmatically, resetting the
    /// call counters. Overrides the environment for the rest of the process.
    pub fn set_for_test(spec: Option<FaultSpec>) {
        let mut guard = STATE.lock().unwrap();
        *guard = Some(FaultState {
            spec,
            counts: [0; 3],
        });
    }

    /// Called by every spill I/O primitive; fails on the armed call.
    pub(crate) fn check(op: FaultOp) -> ExecResult {
        with_state(|state| {
            let Some(spec) = state.spec else {
                return Ok(());
            };
            if spec.op != op {
                return Ok(());
            }
            state.counts[op.index()] += 1;
            if state.counts[op.index()] == spec.nth {
                return Err(ExecError::spill(op.name(), spec.kind.message()));
            }
            Ok(())
        })
    }
}

use fault::FaultOp;

// ------------------------------------------------------------- SpillDir

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// RAII guard over one query's spill directory. All spill files of a query
/// live inside it; dropping the guard removes the directory recursively, so
/// cancelled, failed, or fault-injected queries cannot leave orphan files.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh uniquely-named spill directory under `base`, falling
    /// back to `$JOINSTUDY_SPILL_DIR`, then the system temp directory.
    pub fn create(base: Option<PathBuf>) -> ExecResult<Arc<SpillDir>> {
        let base = base
            .or_else(|| std::env::var_os("JOINSTUDY_SPILL_DIR").map(PathBuf::from))
            .unwrap_or_else(std::env::temp_dir);
        let path = base.join(format!(
            "joinstudy-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fault::check(FaultOp::Create)?;
        fs::create_dir_all(&path)
            .map_err(|e| ExecError::spill("create", format!("{}: {e}", path.display())))?;
        Ok(Arc::new(SpillDir { path }))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of a named spill file inside this directory.
    pub fn file_path(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ------------------------------------------------------------ SpillFile

/// A finished spill run: path plus its metadata.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl SpillFile {
    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Best-effort eager deletion (the [`SpillDir`] guard is the backstop).
    pub fn remove(&self) {
        let _ = fs::remove_file(&self.path);
    }
}

// ----------------------------------------------------------- the codec

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int32 => 1,
        DataType::Int64 => 2,
        DataType::Float64 => 3,
        DataType::Date => 4,
        DataType::Decimal => 5,
        DataType::Str => 6,
    }
}

fn dtype_from_tag(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::Bool,
        1 => DataType::Int32,
        2 => DataType::Int64,
        3 => DataType::Float64,
        4 => DataType::Date,
        5 => DataType::Decimal,
        6 => DataType::Str,
        _ => return None,
    })
}

/// FNV-1a over the payload, one little-endian `u64` word per step and the
/// last `len % 8` bytes one by one.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

// Fixed-width columns go to and from a frame as they lie in memory.
const _: () = assert!(
    cfg!(target_endian = "little"),
    "the spill codec assumes a little-endian target"
);

/// The in-memory bytes of a fixed-width column, which on a little-endian
/// target already are its frame encoding.
fn le_bytes<T: Copy>(v: &[T]) -> &[u8] {
    // SAFETY: only called with `bool`, `i32`, `i64` and `f64` elements,
    // none of which has padding or a byte that is invalid to read as `u8`;
    // the length covers exactly the slice's own allocation.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
}

/// Rebuild a fixed-width column from its frame bytes with one copy.
fn from_le_bytes<T: Copy + Default>(raw: &[u8]) -> Vec<T> {
    let n = raw.len() / std::mem::size_of::<T>();
    let mut v = vec![T::default(); n];
    // SAFETY: only called with `i32`, `i64` and `f64`, for which every
    // byte pattern is a value; `v` owns `n * size_of::<T>()` bytes and the
    // caller's cursor bounds-checked `raw` to at least that length.
    unsafe {
        std::ptr::copy_nonoverlapping(
            raw.as_ptr(),
            v.as_mut_ptr().cast::<u8>(),
            n * std::mem::size_of::<T>(),
        );
    }
    v
}

fn encode_column(col: &ColumnData, buf: &mut Vec<u8>) {
    match col {
        ColumnData::Bool(v) => buf.extend_from_slice(le_bytes(v)),
        ColumnData::Int32(v) | ColumnData::Date(v) => buf.extend_from_slice(le_bytes(v)),
        ColumnData::Int64(v) | ColumnData::Decimal(v) => buf.extend_from_slice(le_bytes(v)),
        ColumnData::Float64(v) => buf.extend_from_slice(le_bytes(v)),
        ColumnData::Str(s) => {
            for i in 0..s.len() {
                let v = s.get(i);
                buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
                buf.extend_from_slice(v.as_bytes());
            }
        }
    }
}

/// Serialize one batch into the frame payload layout.
fn encode_batch(batch: &Batch, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(batch.num_columns() as u16).to_le_bytes());
    for c in 0..batch.num_columns() {
        let col = batch.column(c);
        buf.push(dtype_tag(col.data_type()));
        match batch.validity(c) {
            Some(mask) => {
                buf.push(1);
                buf.extend_from_slice(le_bytes(mask));
            }
            None => buf.push(0),
        }
        encode_column(col, buf);
    }
}

/// Sequential payload cursor with bounds-checked reads; any overrun means a
/// corrupt frame.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> ExecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        match end {
            Some(end) => {
                let s = &self.data[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ExecError::spill(
                "read",
                "corrupt frame: payload shorter than its encoding",
            )),
        }
    }

    fn u16(&mut self) -> ExecResult<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> ExecResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> ExecResult<u8> {
        Ok(self.bytes(1)?[0])
    }
}

fn decode_column(cur: &mut Cursor<'_>, dtype: DataType, rows: usize) -> ExecResult<ColumnData> {
    Ok(match dtype {
        DataType::Bool => ColumnData::Bool(cur.bytes(rows)?.iter().map(|&b| b != 0).collect()),
        DataType::Int32 => ColumnData::Int32(from_le_bytes(cur.bytes(rows * 4)?)),
        DataType::Date => ColumnData::Date(from_le_bytes(cur.bytes(rows * 4)?)),
        DataType::Int64 => ColumnData::Int64(from_le_bytes(cur.bytes(rows * 8)?)),
        DataType::Decimal => ColumnData::Decimal(from_le_bytes(cur.bytes(rows * 8)?)),
        DataType::Float64 => ColumnData::Float64(from_le_bytes(cur.bytes(rows * 8)?)),
        DataType::Str => {
            let mut s = StrColumn::with_capacity(rows, 0);
            for _ in 0..rows {
                let len = cur.u32()? as usize;
                let raw = cur.bytes(len)?;
                let v = std::str::from_utf8(raw).map_err(|_| {
                    ExecError::spill("read", "corrupt frame: non-UTF-8 string payload")
                })?;
                s.push(v);
            }
            ColumnData::Str(s)
        }
    })
}

fn decode_batch(payload: &[u8], rows: usize) -> ExecResult<Batch> {
    let mut cur = Cursor {
        data: payload,
        pos: 0,
    };
    let ncols = cur.u16()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    let mut validity: Vec<Validity> = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let tag = cur.u8()?;
        let dtype = dtype_from_tag(tag)
            .ok_or_else(|| ExecError::spill("read", format!("corrupt frame: type tag {tag}")))?;
        validity.push(match cur.u8()? {
            0 => None,
            _ => Some(cur.bytes(rows)?.iter().map(|&b| b != 0).collect()),
        });
        columns.push(decode_column(&mut cur, dtype, rows)?);
    }
    if cur.pos != payload.len() {
        return Err(ExecError::spill(
            "read",
            "corrupt frame: trailing bytes after batch payload",
        ));
    }
    Ok(Batch::with_validity(columns, validity))
}

// ----------------------------------------------------------- SpillWriter

/// Buffered sequential writer for one spill run. Its write buffer is
/// charged against the query's memory budget; the file is deleted on drop
/// unless [`SpillWriter::finish`]ed.
pub struct SpillWriter {
    file: File,
    path: PathBuf,
    ctx: Arc<QueryContext>,
    buf: Vec<u8>,
    /// Buffered bytes at which [`SpillWriter::write_batch`] flushes; also
    /// what `_lease` holds.
    buf_bytes: usize,
    _lease: BudgetLease,
    rows: u64,
    bytes: u64,
    finished: bool,
}

impl SpillWriter {
    /// Create `dir/name`, reserving the write buffer from the budget first
    /// so running out of memory *while spilling* is itself a clean, typed
    /// failure.
    pub fn create(dir: &SpillDir, name: &str, ctx: &Arc<QueryContext>) -> ExecResult<SpillWriter> {
        SpillWriter::create_sized(dir, name, ctx, WRITE_BUF_BYTES)
    }

    /// [`SpillWriter::create`] with a write buffer of `buf_bytes`: a join
    /// whose share of the budget is small opens its runs with less.
    pub fn create_sized(
        dir: &SpillDir,
        name: &str,
        ctx: &Arc<QueryContext>,
        buf_bytes: usize,
    ) -> ExecResult<SpillWriter> {
        let lease = BudgetLease::reserve(ctx, buf_bytes)?;
        fault::check(FaultOp::Create)?;
        let path = dir.file_path(name);
        let file = File::create(&path)
            .map_err(|e| ExecError::spill("create", format!("{}: {e}", path.display())))?;
        Ok(SpillWriter {
            file,
            path,
            ctx: Arc::clone(ctx),
            buf: Vec::with_capacity(buf_bytes),
            buf_bytes,
            _lease: lease,
            rows: 0,
            bytes: 0,
            finished: false,
        })
    }

    /// Append one batch as a checksummed frame.
    pub fn write_batch(&mut self, batch: &Batch) -> ExecResult {
        self.ctx.check()?;
        let header_at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
        encode_batch(batch, &mut self.buf);
        let payload = &self.buf[header_at + FRAME_HEADER_BYTES..];
        let payload_len = payload.len() as u32;
        let checksum = checksum(payload);
        let h = &mut self.buf[header_at..header_at + FRAME_HEADER_BYTES];
        h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        h[4..8].copy_from_slice(&payload_len.to_le_bytes());
        h[8..12].copy_from_slice(&(batch.num_rows() as u32).to_le_bytes());
        h[12..16].copy_from_slice(&0u32.to_le_bytes());
        h[16..24].copy_from_slice(&checksum.to_le_bytes());
        self.rows += batch.num_rows() as u64;
        if self.buf.len() >= self.buf_bytes {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> ExecResult {
        if self.buf.is_empty() {
            return Ok(());
        }
        fault::check(FaultOp::Write)?;
        // Wait-state + time attribution around the actual I/O: stamp
        // SpillIo for the sampler, restore the previous (CPU) stamp after.
        let prev = self.ctx.wait_state();
        self.ctx.stamp_wait(WaitState::SpillIo);
        let io_start = std::time::Instant::now();
        let wrote = self
            .file
            .write_all(&self.buf)
            .map_err(|e| ExecError::spill("write", format!("{}: {e}", self.path.display())));
        self.ctx
            .add_spill_io_ns(io_start.elapsed().as_nanos() as u64);
        self.ctx.stamp_wait(prev);
        wrote?;
        let n = self.buf.len() as u64;
        self.bytes += n;
        self.ctx.add_spill_write(n);
        metrics::record_write(MemPhase::Spill, n);
        self.buf.clear();
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> ExecResult<SpillFile> {
        self.flush()?;
        self.finished = true;
        Ok(SpillFile {
            path: self.path.clone(),
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.path);
        }
    }
}

// ----------------------------------------------------------- SpillReader

/// Sequential reader over a spill run; verifies every frame's magic,
/// length, and checksum.
pub struct SpillReader {
    file: File,
    path: PathBuf,
    ctx: Arc<QueryContext>,
    /// The current frame's payload; one allocation serves the whole run.
    payload: Vec<u8>,
}

impl SpillReader {
    pub fn open(file: &SpillFile, ctx: &Arc<QueryContext>) -> ExecResult<SpillReader> {
        fault::check(FaultOp::Create)?;
        let f = File::open(&file.path)
            .map_err(|e| ExecError::spill("create", format!("{}: {e}", file.path.display())))?;
        Ok(SpillReader {
            file: f,
            path: file.path.clone(),
            ctx: Arc::clone(ctx),
            payload: Vec::new(),
        })
    }

    /// Fill `buf` completely. `Ok(false)` on clean EOF at offset zero of the
    /// read; any partial fill is a short-read error.
    fn read_full(&mut self, buf: &mut [u8]) -> ExecResult<bool> {
        let mut got = 0;
        while got < buf.len() {
            let n = self
                .file
                .read(&mut buf[got..])
                .map_err(|e| ExecError::spill("read", format!("{}: {e}", self.path.display())))?;
            if n == 0 {
                if got == 0 {
                    return Ok(false);
                }
                return Err(ExecError::spill(
                    "read",
                    format!(
                        "short read: {} ended {} B into a {} B section",
                        self.path.display(),
                        got,
                        buf.len()
                    ),
                ));
            }
            got += n;
        }
        Ok(true)
    }

    /// [`SpillReader::read_full`] with SpillIo wait-state and time
    /// attribution on the query context (see [`joinstudy_exec::progress`]).
    fn read_full_timed(&mut self, buf: &mut [u8]) -> ExecResult<bool> {
        let prev = self.ctx.wait_state();
        self.ctx.stamp_wait(WaitState::SpillIo);
        let io_start = std::time::Instant::now();
        let got = self.read_full(buf);
        self.ctx
            .add_spill_io_ns(io_start.elapsed().as_nanos() as u64);
        self.ctx.stamp_wait(prev);
        got
    }

    /// Read and verify the next frame; `Ok(None)` at end of run.
    pub fn read_batch(&mut self) -> ExecResult<Option<Batch>> {
        self.ctx.check()?;
        let mut header = [0u8; FRAME_HEADER_BYTES];
        if !self.read_full_timed(&mut header)? {
            return Ok(None);
        }
        fault::check(FaultOp::Read)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != FRAME_MAGIC {
            return Err(ExecError::spill(
                "read",
                format!(
                    "corrupt frame: bad magic {magic:#x} in {}",
                    self.path.display()
                ),
            ));
        }
        let payload_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let rows = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let stored = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let mut payload = std::mem::take(&mut self.payload);
        payload.resize(payload_len, 0);
        if !self.read_full_timed(&mut payload)? {
            return Err(ExecError::spill(
                "read",
                format!(
                    "short read: missing frame payload in {}",
                    self.path.display()
                ),
            ));
        }
        if checksum(&payload) != stored {
            return Err(ExecError::spill(
                "read",
                format!(
                    "corrupt frame: checksum mismatch in {}",
                    self.path.display()
                ),
            ));
        }
        let batch = decode_batch(&payload, rows)?;
        self.payload = payload;
        if batch.num_rows() != rows {
            return Err(ExecError::spill(
                "read",
                "corrupt frame: row count disagrees with header",
            ));
        }
        let n = (FRAME_HEADER_BYTES + payload_len) as u64;
        self.ctx.add_spill_read(n);
        metrics::record_read(MemPhase::Spill, n);
        Ok(Some(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_exec::batch::BatchBuilder;
    use joinstudy_storage::types::Value;
    use std::sync::Mutex;

    /// Fault state is process-global; serialize the tests that arm it.
    pub(crate) static FAULT_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn sample_batch() -> Batch {
        let mut b = BatchBuilder::new(vec![
            DataType::Int64,
            DataType::Str,
            DataType::Float64,
            DataType::Int32,
        ]);
        for i in 0..300i64 {
            b.push_row(&[
                Value::Int64(i),
                Value::Str(format!("row-{i}-αβ")),
                Value::Float64(i as f64 * 0.5),
                Value::Int32(20_000 + i as i32),
            ]);
        }
        let batch = b.flush().unwrap();
        // Attach a validity mask to one column to round-trip NULL-ness.
        let mut validity: Vec<Validity> = vec![None; batch.num_columns()];
        validity[2] = Some((0..batch.num_rows()).map(|i| i % 7 != 0).collect());
        Batch::with_validity(batch.into_columns(), validity)
    }

    fn tmp_base() -> PathBuf {
        std::env::temp_dir().join("joinstudy-spill-tests")
    }

    #[test]
    fn round_trip_preserves_rows_validity_and_strings() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap();
        fault::set_for_test(None);
        let ctx = QueryContext::unbounded();
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let mut w = SpillWriter::create(&dir, "run0", &ctx).unwrap();
        let batch = sample_batch();
        w.write_batch(&batch).unwrap();
        w.write_batch(&batch).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(file.rows(), 2 * batch.num_rows() as u64);
        assert!(file.bytes() > 0);

        let mut r = SpillReader::open(&file, &ctx).unwrap();
        for _ in 0..2 {
            let got = r.read_batch().unwrap().unwrap();
            assert_eq!(got.num_rows(), batch.num_rows());
            assert_eq!(got.num_columns(), batch.num_columns());
            for c in 0..batch.num_columns() {
                assert_eq!(got.validity(c), batch.validity(c), "validity col {c}");
                for row in 0..batch.num_rows() {
                    assert_eq!(got.value(c, row), batch.value(c, row), "col {c} row {row}");
                }
            }
        }
        assert!(r.read_batch().unwrap().is_none());
        assert_eq!(ctx.spill_write_bytes(), file.bytes());
        assert!(ctx.spill_read_bytes() >= file.bytes());
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap();
        fault::set_for_test(None);
        let ctx = QueryContext::unbounded();
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let mut w = SpillWriter::create(&dir, "run0", &ctx).unwrap();
        w.write_batch(&sample_batch()).unwrap();
        let file = w.finish().unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut raw = fs::read(file.path()).unwrap();
        let flip_at = FRAME_HEADER_BYTES + raw.len() / 2;
        raw[flip_at] ^= 0xff;
        fs::write(file.path(), &raw).unwrap();
        let mut r = SpillReader::open(&file, &ctx).unwrap();
        let err = r.read_batch().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncate mid-payload: short read.
        raw[flip_at] ^= 0xff;
        fs::write(file.path(), &raw[..raw.len() - 10]).unwrap();
        let mut r = SpillReader::open(&file, &ctx).unwrap();
        let err = r.read_batch().unwrap_err();
        assert!(err.to_string().contains("short read"), "{err}");

        // Bad magic.
        raw[0] ^= 0xff;
        fs::write(file.path(), &raw).unwrap();
        let mut r = SpillReader::open(&file, &ctx).unwrap();
        let err = r.read_batch().unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn dir_guard_removes_everything_and_writer_charges_budget() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap();
        fault::set_for_test(None);
        let ctx = QueryContext::unbounded();
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let dir_path = dir.path().to_path_buf();
        let mut w = SpillWriter::create(&dir, "orphan", &ctx).unwrap();
        assert_eq!(ctx.used(), WRITE_BUF_BYTES, "write buffer must be charged");
        w.write_batch(&sample_batch()).unwrap();
        let file = w.finish().unwrap();
        assert_eq!(ctx.used(), 0, "finished writer releases its buffer");
        assert!(file.path().exists());
        drop(dir);
        assert!(!dir_path.exists(), "dir guard must remove the directory");
        assert!(!file.path().exists(), "...including unconsumed runs");
    }

    #[test]
    fn unfinished_writer_deletes_its_file() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap();
        fault::set_for_test(None);
        let ctx = QueryContext::unbounded();
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let path;
        {
            let mut w = SpillWriter::create(&dir, "abandoned", &ctx).unwrap();
            w.write_batch(&sample_batch()).unwrap();
            path = dir.file_path("abandoned");
        }
        assert!(!path.exists(), "dropped-unfinished writer leaves no file");
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn fault_injection_fires_typed_errors_on_the_nth_call() {
        let _guard = FAULT_TEST_LOCK.lock().unwrap();
        let ctx = QueryContext::unbounded();

        fault::set_for_test(fault::FaultSpec::parse("create:enospc:2"));
        let dir = SpillDir::create(Some(tmp_base())).unwrap(); // 1st create: ok
        let err = SpillWriter::create(&dir, "x", &ctx).err().unwrap(); // 2nd: boom
        assert!(
            matches!(err, ExecError::SpillIo { op: "create", .. }),
            "{err}"
        );
        assert_eq!(ctx.used(), 0, "failed create releases its buffer lease");

        fault::set_for_test(fault::FaultSpec::parse("write:enospc"));
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let mut w = SpillWriter::create(&dir, "x", &ctx).unwrap();
        w.write_batch(&sample_batch()).unwrap();
        let err = w.finish().unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert!(
            !dir.file_path("x").exists(),
            "failed finish deletes the run"
        );

        fault::set_for_test(fault::FaultSpec::parse("read:eio"));
        let dir = SpillDir::create(Some(tmp_base())).unwrap();
        let mut w = SpillWriter::create(&dir, "x", &ctx).unwrap();
        w.write_batch(&sample_batch()).unwrap();
        let file = w.finish().unwrap();
        let mut r = SpillReader::open(&file, &ctx).unwrap();
        let err = r.read_batch().unwrap_err();
        assert!(
            matches!(err, ExecError::SpillIo { op: "read", .. }),
            "{err}"
        );

        fault::set_for_test(fault::FaultSpec::parse("read:short"));
        let mut r = SpillReader::open(&file, &ctx).unwrap();
        let err = r.read_batch().unwrap_err();
        assert!(err.to_string().contains("short read"), "{err}");

        fault::set_for_test(None);
        assert_eq!(ctx.used(), 0);
    }

    #[test]
    fn fault_spec_parser_rejects_garbage() {
        for bad in [
            "",
            "write",
            "write:",
            "write:nope",
            "x:eio",
            "read:eio:0",
            "read:eio:1:1",
        ] {
            assert!(fault::FaultSpec::parse(bad).is_none(), "accepted {bad:?}");
        }
        let s = fault::FaultSpec::parse("read:short:3").unwrap();
        assert_eq!(s.nth, 3);
        assert_eq!(s.kind, fault::FaultKind::Short);
    }
}
