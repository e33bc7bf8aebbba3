//! A minimal line-protocol SQL server for concurrent query serving.
//!
//! One TCP connection is one [`Session`]: every connection gets its own
//! catalog view (the server's registered tables) and its own
//! [`QueryContext`], but all connections share one process-wide
//! [`WorkerPool`] (morsels of concurrent queries interleave on the same
//! worker team) and one [`AdmissionController`] (a global memory pool;
//! queries queue when it is exhausted, and get *reduced* grants under
//! pressure, which degrades their joins RJ → BHJ → spilling HHJ instead
//! of failing — see `joinstudy_exec::admission`).
//!
//! # Protocol
//!
//! Requests are newline-delimited: one SQL statement per line (a trailing
//! `;` is allowed), or `.quit` to close the connection. Every statement
//! gets exactly one response, terminated by a line containing a single
//! `.`:
//!
//! ```text
//! OK <rows> <cols>
//! <tab-separated header>
//! <tab-separated row> ...
//! .
//! ```
//!
//! or, on failure:
//!
//! ```text
//! ERR <message>
//! .
//! ```
//!
//! The encoding lives in [`encode_table`] / [`encode_error`] so the
//! multi-client equivalence tests can render a serial single-session run
//! with byte-identical framing.
//!
//! Besides SQL, two protocol commands are recognized: `.quit` closes the
//! connection, and `METRICS` returns the server's current metrics in
//! Prometheus text exposition (terminated by the same `.` line; see
//! [`SqlServer::metrics_text`]). Telemetry-wise, every connection shares
//! the server's [`StatLog`] and [`SlowLog`], so `SELECT * FROM
//! jsys.statements` on any connection sees every connection's statements.
//!
//! # Disconnects
//!
//! A watchdog thread per connection `peek`s the socket; when the client
//! goes away mid-query it repeatedly cancels the session's
//! [`QueryContext`] (repeatedly, because a statement that has not yet
//! armed its context would otherwise clear a single cancel). The running
//! query unwinds through the normal error path: spill files are removed
//! by their directory guards and the admission grant is returned by RAII,
//! so a vanished client leaks neither disk nor memory budget.

use crate::session::{Session, SqlError};
use crate::stats::{
    now_ms, render_exposition, AshRing, AshSample, SlowLog, StatLog, TimeseriesRing, TsSample,
};
use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::pool::WorkerPool;
use joinstudy_exec::progress;
use joinstudy_exec::registry;
use joinstudy_storage::table::Table;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the per-connection watchdog polls the socket for EOF, and
/// how often it re-cancels a query whose client is gone.
const WATCHDOG_TICK: Duration = Duration::from_millis(5);

/// Sizing knobs for a [`SqlServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Workers in the shared pool.
    pub threads: usize,
    /// Bytes in the global admission memory pool.
    pub pool_bytes: usize,
    /// Bytes each query asks the admission controller for. Grants may
    /// come back smaller under pressure (never below `min_grant_bytes`).
    pub query_bytes: usize,
    /// Smallest grant worth admitting a query with.
    pub min_grant_bytes: usize,
    /// Run the active-session-history sampler thread. Off, `jsys.ash`
    /// stays empty (the table still answers); the A/B knob behind the
    /// sampler-overhead contract in DESIGN.md §14.
    pub ash_enabled: bool,
    /// Wait-state sampling interval.
    pub ash_interval: Duration,
    /// Gauge time-series tick interval (`jsys.timeseries`).
    pub timeseries_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            threads,
            pool_bytes: 256 << 20,
            query_bytes: 64 << 20,
            min_grant_bytes: 8 << 20,
            ash_enabled: true,
            ash_interval: Duration::from_millis(10),
            timeseries_interval: Duration::from_secs(1),
        }
    }
}

/// The shared serving state: catalog, worker pool, admission controller.
/// Create one, [`register`](SqlServer::register) tables, wrap in an `Arc`,
/// and [`serve`](SqlServer::serve) or [`spawn`](SqlServer::spawn).
pub struct SqlServer {
    catalog: BTreeMap<String, Arc<Table>>,
    pool: Arc<WorkerPool>,
    admission: Arc<AdmissionController>,
    /// One statement-statistics log shared by every connection, so
    /// `jsys.statements` is a server-wide view.
    statlog: Arc<StatLog>,
    /// One slow-query sink shared by every connection.
    slowlog: Arc<SlowLog>,
    /// Active session history: the wait-state sampler's output ring.
    ash: Arc<AshRing>,
    /// 1-second server gauges (`jsys.timeseries`).
    timeseries: Arc<TimeseriesRing>,
    /// Stops the sampler and ticker threads when the server drops.
    telemetry_stop: Arc<AtomicBool>,
    telemetry_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: ServerConfig,
}

impl SqlServer {
    pub fn new(config: ServerConfig) -> SqlServer {
        let server = SqlServer {
            catalog: BTreeMap::new(),
            pool: WorkerPool::new(config.threads),
            admission: AdmissionController::new(config.pool_bytes, config.min_grant_bytes),
            statlog: Arc::new(StatLog::new()),
            slowlog: Arc::new(SlowLog::from_env()),
            ash: Arc::new(AshRing::new()),
            timeseries: Arc::new(TimeseriesRing::new()),
            telemetry_stop: Arc::new(AtomicBool::new(false)),
            telemetry_threads: Mutex::new(Vec::new()),
            config,
        };
        server.start_telemetry();
        server
    }

    /// Spawn the ASH sampler (when enabled) and the gauge ticker. Both are
    /// pure readers of shared state — they never take a lock a query's hot
    /// path holds for more than a registry push/snapshot — so sampling
    /// cost stays off the serving path (the <2% p50 contract is tested in
    /// `bench_serve`'s sampler A/B).
    fn start_telemetry(&self) {
        let mut threads = self
            .telemetry_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if self.config.ash_enabled {
            let stop = Arc::clone(&self.telemetry_stop);
            let statlog = Arc::clone(&self.statlog);
            let ash = Arc::clone(&self.ash);
            let interval = self.config.ash_interval;
            threads.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let at_ms = now_ms();
                    // One read of the live counter blocks serves every
                    // sample of this tick.
                    let live = progress::global().live();
                    for q in statlog.active_detail() {
                        let (query_id, wait_state) = match &q.ctx {
                            Some(ctx) => (ctx.query_id(), ctx.wait_state().name()),
                            // A statement queued before its session ever
                            // shared a context: classify from the registry
                            // state alone.
                            None if q.state == "queued" => (0, "admission_queued"),
                            None => (0, "other"),
                        };
                        // The query's most recently registered pipeline is
                        // what it runs now; `rows` sums the source rows of
                        // all its live pipelines. Query id 0 owns none.
                        let mut mine = live
                            .iter()
                            .filter(|p| query_id != 0 && p.query_id == query_id);
                        let rows = mine.clone().map(|p| p.source.rows_out()).sum();
                        let pipeline = mine.next_back().map_or(String::new(), |p| p.label.clone());
                        ash.push(AshSample {
                            at_ms,
                            conn: q.conn,
                            query_id,
                            fingerprint: q.fingerprint,
                            wait_state,
                            pipeline,
                            rows,
                            granted_bytes: q.granted_bytes,
                        });
                    }
                    std::thread::sleep(interval);
                }
            }));
        }
        let stop = Arc::clone(&self.telemetry_stop);
        let statlog = Arc::clone(&self.statlog);
        let admission = Arc::clone(&self.admission);
        let pool = Arc::clone(&self.pool);
        let timeseries = Arc::clone(&self.timeseries);
        let interval = self.config.timeseries_interval;
        threads.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let reg = registry::global();
                let available = admission.available() as u64;
                timeseries.push(TsSample {
                    at_ms: now_ms(),
                    queue_depth: admission.queued() as u64,
                    available_bytes: available,
                    admitted_bytes: admission.total() as u64 - available,
                    pool_threads: pool.threads() as u64,
                    active_pipelines: pool.active_pipelines() as u64,
                    active_queries: statlog.active_snapshot().len() as u64,
                    spill_write_bytes: reg.counter("spill.write_bytes").get(),
                    spill_read_bytes: reg.counter("spill.read_bytes").get(),
                });
                // Sleep in short slices so dropping the server never
                // blocks a full tick behind the join.
                let mut slept = Duration::ZERO;
                while slept < interval && !stop.load(Ordering::Acquire) {
                    let slice = WATCHDOG_TICK.min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        }));
    }

    /// Register a table every connection's session will see.
    pub fn register(&mut self, name: impl Into<String>, table: Arc<Table>) {
        self.catalog.insert(name.into(), table);
    }

    /// The shared worker pool (for tests and stats).
    pub fn pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.pool)
    }

    /// The shared admission controller (for tests and stats).
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.admission)
    }

    /// The server-wide statement-statistics log.
    pub fn statlog(&self) -> Arc<StatLog> {
        Arc::clone(&self.statlog)
    }

    /// The server-wide slow-query sink.
    pub fn slowlog(&self) -> Arc<SlowLog> {
        Arc::clone(&self.slowlog)
    }

    /// The active-session-history ring (for tests and benches).
    pub fn ash(&self) -> Arc<AshRing> {
        Arc::clone(&self.ash)
    }

    /// The gauge time-series ring (for tests and benches).
    pub fn timeseries(&self) -> Arc<TimeseriesRing> {
        Arc::clone(&self.timeseries)
    }

    /// Build the per-connection session: shared pool, registered tables,
    /// shared telemetry, and a fresh connection id.
    fn session(&self) -> Session {
        let mut session = Session::new(self.config.threads);
        session.set_worker_pool(Some(Arc::clone(&self.pool)));
        session.set_statlog(Arc::clone(&self.statlog));
        session.set_slowlog(Arc::clone(&self.slowlog));
        session.set_conn_id(self.statlog.next_conn_id());
        session.set_admission(Some(Arc::clone(&self.admission)));
        session.set_ash(Some(Arc::clone(&self.ash)));
        session.set_timeseries(Some(Arc::clone(&self.timeseries)));
        for (name, table) in &self.catalog {
            session.register(name.clone(), Arc::clone(table));
        }
        session
    }

    /// Current metrics in Prometheus text exposition: every global-registry
    /// counter and histogram quantile plus live pool and admission gauges,
    /// each prefixed `joinstudy_`. Served by the `METRICS` protocol command.
    pub fn metrics_text(&self) -> String {
        let mut samples = registry::global().snapshot();
        samples.push(("pool.threads".to_string(), self.pool.threads() as f64));
        samples.push((
            "pool.active_pipelines".to_string(),
            self.pool.active_pipelines() as f64,
        ));
        samples.push((
            "admission.total_bytes".to_string(),
            self.admission.total() as f64,
        ));
        samples.push((
            "admission.available_bytes".to_string(),
            self.admission.available() as f64,
        ));
        samples.push((
            "admission.queued".to_string(),
            self.admission.queued() as f64,
        ));
        samples.push((
            "admission.peak_granted_bytes".to_string(),
            self.admission.peak_granted() as f64,
        ));
        samples.push((
            "statements.recorded".to_string(),
            self.statlog.total_recorded() as f64,
        ));
        samples.push(("ash.samples".to_string(), self.ash.total_samples() as f64));
        render_exposition(&samples)
    }

    /// Accept loop: one thread per connection, until the process exits.
    pub fn serve(self: &Arc<SqlServer>, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(self);
            std::thread::spawn(move || server.handle_connection(stream));
        }
        Ok(())
    }

    /// Background accept loop for tests and benches: returns a handle with
    /// the bound address; dropping (or [`ServerHandle::stop`]) stops
    /// accepting new connections (existing ones run to completion).
    pub fn spawn(self: Arc<SqlServer>, listener: TcpListener) -> std::io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            while !accept_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let server = Arc::clone(&self);
                        std::thread::spawn(move || server.handle_connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(WATCHDOG_TICK);
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// One connection: read statements line by line, run them through the
    /// admission controller and the shared pool, write framed responses.
    fn handle_connection(&self, stream: TcpStream) {
        let mut session = self.session();
        let conn = session.conn_id();
        let ctx = session.context();

        // Watchdog: peek for EOF; once the client is gone, cancel the
        // context every tick (see module docs for why repeatedly).
        let stop = Arc::new(AtomicBool::new(false));
        let watchdog = stream.try_clone().ok().map(|peek_stream| {
            let stop = Arc::clone(&stop);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || {
                let _ = peek_stream.set_read_timeout(Some(WATCHDOG_TICK));
                let mut buf = [0u8; 1];
                let mut gone = false;
                while !stop.load(Ordering::Acquire) {
                    if !gone {
                        match peek_stream.peek(&mut buf) {
                            Ok(0) => gone = true,
                            Ok(_) => std::thread::sleep(WATCHDOG_TICK),
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut => {}
                            Err(_) => gone = true,
                        }
                    } else {
                        ctx.cancel();
                        std::thread::sleep(WATCHDOG_TICK);
                    }
                }
            })
        });

        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        let mut line = String::new();
        'conn: loop {
            line.clear();
            // The watchdog's read timeout lives on the shared socket (a
            // `try_clone` duplicates the fd, and `SO_RCVTIMEO` belongs to
            // the underlying socket), so an idle gap between statements
            // surfaces here as WouldBlock/TimedOut with a possibly
            // partial line accumulated — keep reading until the newline.
            loop {
                match reader.read_line(&mut line) {
                    Ok(0) => break 'conn,
                    Ok(_) => break,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => break 'conn,
                }
            }
            let stmt = line.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt == ".quit" {
                break;
            }
            // `METRICS` is a protocol command, not SQL: it answers from
            // shared server state without touching the session, so a
            // scraper never queues behind admission control.
            if stmt.eq_ignore_ascii_case("METRICS") {
                let mut response = self.metrics_text();
                response.push_str(".\n");
                if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                    break;
                }
                continue;
            }
            let response = self.run_statement(&mut session, conn, stmt);
            if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
    }

    /// Admission + execution of one statement, encoded for the wire.
    fn run_statement(&self, session: &mut Session, conn: u64, stmt: &str) -> String {
        let ctx = session.context();
        let started = Instant::now();
        // Show up in `jsys.active_queries` while waiting for memory; the
        // session flips the state to `running` once it starts executing.
        // Attaching the context here lets the ASH sampler see the
        // admission wait before the statement ever arms.
        self.statlog
            .active_upsert(conn, stmt, "queued", 0, Some(&ctx));
        let grant = match self.admission.admit(self.config.query_bytes, &ctx) {
            Ok(grant) => grant,
            Err(e) => {
                let err = SqlError::from(e);
                session.reject(stmt, started, &err);
                return encode_error(&err);
            }
        };
        session.set_memory_budget(Some(grant.bytes()));
        let result = session.execute(stmt);
        session.set_memory_budget(None);
        drop(grant);
        match result {
            Ok(table) => encode_table(&table),
            Err(e) => encode_error(&e),
        }
    }
}

impl Drop for SqlServer {
    fn drop(&mut self) {
        self.telemetry_stop.store(true, Ordering::Release);
        let threads = std::mem::take(
            &mut *self
                .telemetry_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Handle to a [`SqlServer::spawn`]ed accept loop.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients should connect to.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Render a result table in wire framing (`OK` header, tab-separated
/// rows, `.` terminator). Public so tests can compare a serial reference
/// run byte-for-byte against server responses.
pub fn encode_table(t: &Table) -> String {
    let mut out = String::new();
    let header: Vec<&str> = t.schema().fields.iter().map(|f| f.name.as_str()).collect();
    out.push_str(&format!("OK {} {}\n", t.num_rows(), header.len()));
    out.push_str(&header.join("\t"));
    out.push('\n');
    for r in 0..t.num_rows() {
        let row: Vec<String> = t.row(r).iter().map(|v| v.to_string()).collect();
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out.push_str(".\n");
    out
}

/// Render an error in wire framing (`ERR` line, `.` terminator).
pub fn encode_error(e: &SqlError) -> String {
    let msg = e.to_string().replace('\n', " ");
    format!("ERR {msg}\n.\n")
}

/// Read one framed response (everything up to and including the `.`
/// terminator line) from the server. The client half of the protocol,
/// shared by the tests and `bench_serve`.
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut out = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let done = line.trim_end_matches(['\r', '\n']) == ".";
        out.push_str(&line);
        if done {
            return Ok(out);
        }
    }
}

/// Convenience client for tests and benches: a connected line-protocol
/// client with one method per round trip.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one statement and read its framed response.
    pub fn query(&mut self, stmt: &str) -> std::io::Result<String> {
        self.writer.write_all(stmt.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// Send a statement and drop the connection without reading the
    /// response — the disconnect-mid-query scenario.
    pub fn fire_and_disconnect(mut self, stmt: &str) -> std::io::Result<()> {
        self.writer.write_all(stmt.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        drop(self.reader);
        drop(self.writer);
        Ok(())
    }
}
