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
//! Besides SQL, one protocol command is recognized: `.quit` closes the
//! connection. Everything else the server knows about itself is answered
//! over SQL: every connection shares the server's [`StatLog`] and
//! [`AshRing`], so `SELECT * FROM jsys.statements` (or `jsys.ash`,
//! `jsys.pool`, `jsys.metrics`) on any connection sees every connection's
//! statements.
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
use crate::stats::{now_ms, AshRing, AshSample, StatLog};
use joinstudy_exec::admission::AdmissionController;
use joinstudy_exec::pool::WorkerPool;
use joinstudy_exec::progress;
use joinstudy_storage::table::Table;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// Wait-state sampling interval of the always-on active-session-history
    /// sampler (`jsys.ash`).
    pub ash_interval: Duration,
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
            ash_interval: Duration::from_millis(10),
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
    /// Active session history: the wait-state sampler's output ring.
    ash: Arc<AshRing>,
    /// Stops the sampler thread when the server drops.
    sampler_stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
    config: ServerConfig,
}

impl SqlServer {
    pub fn new(config: ServerConfig) -> SqlServer {
        let statlog = Arc::new(StatLog::new());
        let ash = Arc::new(AshRing::new());
        let sampler_stop = Arc::new(AtomicBool::new(false));
        let sampler = spawn_sampler(
            Arc::clone(&sampler_stop),
            Arc::clone(&statlog),
            Arc::clone(&ash),
            config.ash_interval,
        );
        SqlServer {
            catalog: BTreeMap::new(),
            pool: WorkerPool::new(config.threads),
            admission: AdmissionController::new(config.pool_bytes, config.min_grant_bytes),
            statlog,
            ash,
            sampler_stop,
            sampler: Some(sampler),
            config,
        }
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

    /// The active-session-history ring (for tests and benches).
    pub fn ash(&self) -> Arc<AshRing> {
        Arc::clone(&self.ash)
    }

    /// Build the per-connection session: shared pool, registered tables,
    /// shared telemetry, and a fresh connection id.
    fn session(&self) -> Session {
        let mut session = Session::new(self.config.threads);
        session.set_worker_pool(Some(Arc::clone(&self.pool)));
        session.set_statlog(Arc::clone(&self.statlog));
        session.set_conn_id(self.statlog.next_conn_id());
        session.set_admission(Some(Arc::clone(&self.admission)));
        session.set_ash(Some(Arc::clone(&self.ash)));
        for (name, table) in &self.catalog {
            session.register(name.clone(), Arc::clone(table));
        }
        session
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
        self.sampler_stop.store(true, Ordering::Release);
        if let Some(t) = self.sampler.take() {
            let _ = t.join();
        }
    }
}

/// Spawn the ASH sampler. It is a pure reader of shared state — it
/// never takes a lock a query's hot path holds for more than a
/// registry push/snapshot — so sampling stays off the serving path;
/// its cost is inside `serve_mix`'s latencies (DESIGN.md §14).
fn spawn_sampler(
    stop: Arc<AtomicBool>,
    statlog: Arc<StatLog>,
    ash: Arc<AshRing>,
    interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
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
    })
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
/// shared by the tests, the yardstick's `serve_mix` and the shell's `.top`.
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
