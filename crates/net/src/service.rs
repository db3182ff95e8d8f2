//! `StagingService`: the staging space behind a TCP listener.
//!
//! One accept thread owns the listener; each accepted connection gets a
//! worker thread (DART's one-server-thread-per-client model) under a
//! bounded pool — when the pool is full, the peer receives a typed `Busy`
//! error frame instead of a silently dropped connection. Reads carry a
//! short timeout used as an idle tick so workers observe the stop flag;
//! graceful shutdown is: set the flag, poke the listener with a loopback
//! connect to unblock `accept`, join everything.
//!
//! Memory-cap rejections from the space ([`StagingError::OutOfMemory`])
//! are answered with `OutOfMemory` error frames carrying cap/used/requested
//! — the paper's Eq. 10 pressure signal crosses the wire intact instead of
//! killing the connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use xlayer_staging::{DataObject, DataSpace, ObjectDesc, Sharding, StagingError};

use crate::iovec::write_vectored_all;
use crate::pool::{BufferPool, PooledBuf};
use crate::wire::{
    checksum, chunk_data_parts, chunk_data_parts_cached, clamp_chunk_size, decode_chunk_end,
    decode_chunk_prefix, decode_header, encode_chunk_end, frame_header, verify_payload, ChunkEnd,
    ErrorFrame, Opcode, Request, Response, ServiceSnapshot, CHUNK_PREFIX_LEN, HEADER_LEN,
    MAX_CHUNKED_OBJECT,
};

/// Configuration for a [`StagingService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of staging servers (shards) in the backing space.
    pub servers: usize,
    /// Memory cap per staging server in bytes (paper Eq. 10).
    pub memory_per_server: u64,
    /// How objects are routed to shards.
    pub sharding: Sharding,
    /// Maximum concurrently served connections; excess peers get a `Busy`
    /// error frame and are closed.
    pub max_connections: u32,
    /// Socket read timeout. Doubles as the idle tick at which worker
    /// threads re-check the stop flag, so it bounds shutdown latency.
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Upper bound on the chunk size this service uses for chunked GET
    /// streams: a client's proposal is capped here, then clamped to the
    /// protocol bounds, and the effective size is announced in the
    /// `GetChunkedOk` head frame. (PUT streams are paced by the sender, so
    /// this does not apply to them.)
    pub chunk_size: u32,
    /// Directory for the disk spill tier's per-server object logs. `None`
    /// disables the tier (puts beyond the memory cap are rejected, the
    /// pre-tier behaviour). Each service instance logs under its own
    /// `svc-<port>` subdirectory, so shards of a cluster can share one
    /// template directory without colliding.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Per staging server, the cap on live spilled payload bytes (only
    /// meaningful with `disk_dir` set).
    pub disk_budget: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            servers: 2,
            memory_per_server: 64 << 20,
            sharding: Sharding::RoundRobin,
            max_connections: 32,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            chunk_size: crate::wire::DEFAULT_CHUNK_SIZE,
            disk_dir: None,
            disk_budget: u64::MAX,
        }
    }
}

/// Per-operation counters, updated atomically by worker threads and
/// surfaced to clients through the `Stats` opcode.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// `Put` requests served (accepted and rejected).
    pub puts: AtomicU64,
    /// `Get` requests served.
    pub gets: AtomicU64,
    /// `Query` requests served.
    pub queries: AtomicU64,
    /// `Delete` requests served.
    pub deletes: AtomicU64,
    /// `Stats` requests served.
    pub stats_calls: AtomicU64,
    /// Frames that failed to decode.
    pub wire_errors: AtomicU64,
    /// Puts rejected by the space's memory cap.
    pub rejected_oom: AtomicU64,
    /// Connections accepted into the pool.
    pub conns_accepted: AtomicU64,
    /// Connections refused with `Busy` because the pool was full.
    pub conns_refused: AtomicU64,
    /// Frame bytes received (headers + payloads).
    pub bytes_in: AtomicU64,
    /// Frame bytes sent (headers + payloads).
    pub bytes_out: AtomicU64,
    /// Chunked-get streams whose per-chunk sums came from the cache.
    pub chunksum_hits: AtomicU64,
    /// Chunked-get streams that had to recompute per-chunk sums.
    pub chunksum_misses: AtomicU64,
    /// `Busy` error frames actually written to refused peers. Differs from
    /// `conns_refused` (which counts refusal decisions) when the refusal
    /// frame itself fails to send — this one is what load generators can
    /// reconcile against client-side Busy retries.
    pub busy_frames: AtomicU64,
}

impl ServiceStats {
    /// Snapshot the counters together with the space's occupancy, the wire
    /// buffer pool's hit/miss/outstanding counts, and the disk tier's
    /// spill/promote/hit counters (zeros when no tier is attached).
    pub fn snapshot(&self, space: &DataSpace, pool: &BufferPool) -> ServiceSnapshot {
        let tier = space.tier_stats();
        ServiceSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            stats_calls: self.stats_calls.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            rejected_oom: self.rejected_oom.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            used: space.used(),
            capacity: space.capacity(),
            pool_hits: pool.hits(),
            pool_misses: pool.misses(),
            pool_outstanding: pool.outstanding(),
            tier_spilled: tier.spilled,
            tier_promoted: tier.promoted,
            tier_disk_used: tier.disk_used,
            tier_disk_hits: tier.disk_hits,
            tier_disk_budget: tier.disk_budget,
            tier_disk_headroom: tier.disk_budget.saturating_sub(tier.disk_used),
            chunksum_hits: self.chunksum_hits.load(Ordering::Relaxed),
            chunksum_misses: self.chunksum_misses.load(Ordering::Relaxed),
            busy_frames: self.busy_frames.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    space: Arc<DataSpace>,
    stats: Arc<ServiceStats>,
    pool: Arc<BufferPool>,
    chunk_sums: ChunkSumCache,
    stop: AtomicBool,
    active: AtomicU32,
    addr: SocketAddr,
    cfg: ServiceConfig,
}

/// Per-chunk data checksums of stored objects, keyed by payload identity.
///
/// A chunk frame's checksum is `checksum(prefix) ^ checksum(data)`
/// (see `wire::chunk_data_parts_cached`), so the data half depends only on
/// the stored bytes and the chunk size — not on the request or the chunk's
/// position in a response. Stored objects are immutable behind their
/// `Arc`, which makes those sums cacheable: `serve_put_chunked` learns
/// them for free while verifying the inbound stream, and `serve_get_chunked`
/// then streams the object without a single checksum pass over the
/// payload. For a memory-bound staging service that pass is the dominant
/// per-get CPU cost (the data bytes are otherwise only touched by the
/// kernel's socket copy).
///
/// Entries are keyed by the `Arc`'s allocation address and hold a `Weak`
/// back-reference: the weak keeps the allocation's address from being
/// reused while the entry lives, and an entry whose weak no longer
/// upgrades to the queried object is dead (evicted object) and is ignored.
struct ChunkSumCache {
    // BTreeMap: prune order is a pure function of the keys, never of a
    // hasher's bucket layout.
    map: std::sync::Mutex<std::collections::BTreeMap<usize, ChunkSumEntry>>,
}

struct ChunkSumEntry {
    holder: std::sync::Weak<DataObject>,
    chunk: u32,
    sums: Arc<Vec<u32>>,
}

impl ChunkSumCache {
    /// Entries kept before dead-weak pruning, then wholesale clearing.
    const CAP: usize = 256;

    fn new() -> Self {
        ChunkSumCache {
            map: std::sync::Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// The cached sums for `obj` chunked at `chunk` bytes, if present and
    /// still referring to this exact allocation.
    fn lookup(&self, obj: &Arc<DataObject>, chunk: u32) -> Option<Arc<Vec<u32>>> {
        let map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        let entry = map.get(&(Arc::as_ptr(obj) as usize))?;
        let live = entry
            .holder
            .upgrade()
            .is_some_and(|held| Arc::ptr_eq(&held, obj));
        (live && entry.chunk == chunk).then(|| Arc::clone(&entry.sums))
    }

    fn insert(&self, obj: &Arc<DataObject>, chunk: u32, sums: Arc<Vec<u32>>) {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        map.retain(|_, e| e.holder.upgrade().is_some());
        if map.len() >= Self::CAP {
            map.clear();
        }
        map.insert(
            Arc::as_ptr(obj) as usize,
            ChunkSumEntry {
                holder: Arc::downgrade(obj),
                chunk,
                sums,
            },
        );
    }
}

impl Inner {
    /// Unblock a thread parked in `accept` by completing one connection.
    fn poke(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// Decrements the active-connection count when a worker exits, however it
/// exits.
struct ActiveGuard(Arc<Inner>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running staging service. Dropping the handle without calling
/// [`StagingService::shutdown`] leaves the background threads serving until
/// the process exits; tests and the standalone binary shut down explicitly.
pub struct StagingService {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl StagingService {
    /// Bind a listener and start serving a freshly constructed space sized
    /// by the config. With `disk_dir` set, the space gets a disk spill tier
    /// logging under `disk_dir/svc-<port>` — the listener is bound first so
    /// the port disambiguates shards sharing one template directory — and
    /// the tier reads extents through the same buffer pool the wire path
    /// recycles scratch from.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(BufferPool::new());
        let space = match &cfg.disk_dir {
            None => Arc::new(DataSpace::new(
                cfg.servers.max(1),
                cfg.memory_per_server,
                cfg.sharding,
            )),
            Some(dir) => {
                let tier =
                    xlayer_staging::TierConfig::new(dir.join(format!("svc-{}", addr.port())))
                        .with_budget(cfg.disk_budget);
                let space = DataSpace::new_tiered(
                    cfg.servers.max(1),
                    cfg.memory_per_server,
                    cfg.sharding,
                    &tier,
                    Arc::clone(&pool),
                )
                .map_err(|e| std::io::Error::other(format!("disk tier: {e}")))?;
                Arc::new(space)
            }
        };
        Self::start_on_listener(cfg, listener, addr, space, pool)
    }

    /// Bind a listener and start serving an existing space (lets tests and
    /// embedders share the space with in-process consumers).
    pub fn start_with_space(cfg: ServiceConfig, space: Arc<DataSpace>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = Arc::new(BufferPool::new());
        Self::start_on_listener(cfg, listener, addr, space, pool)
    }

    fn start_on_listener(
        cfg: ServiceConfig,
        listener: TcpListener,
        addr: SocketAddr,
        space: Arc<DataSpace>,
        pool: Arc<BufferPool>,
    ) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            space,
            stats: Arc::new(ServiceStats::default()),
            pool,
            chunk_sums: ChunkSumCache::new(),
            stop: AtomicBool::new(false),
            active: AtomicU32::new(0),
            addr,
            cfg,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("xlayer-net-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(StagingService {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The backing staging space.
    pub fn space(&self) -> &Arc<DataSpace> {
        &self.inner.space
    }

    /// The service's operation counters.
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.inner.stats
    }

    /// The buffer pool connection workers recycle wire scratch through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.inner.pool
    }

    /// Whether a shutdown has been requested (locally or via the wire).
    pub fn is_stopping(&self) -> bool {
        self.inner.stop.load(Ordering::Acquire)
    }

    /// Request a graceful stop and wait for the accept loop and every
    /// worker to finish.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.poke();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the service stops (e.g. a client sent `Shutdown`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if inner.stop.load(Ordering::Acquire) {
            // This accept was (or raced with) the shutdown poke.
            refuse(&inner, stream, ErrorFrame::ShuttingDown);
            break;
        }
        let active = inner.active.load(Ordering::Acquire);
        if active >= inner.cfg.max_connections {
            inner.stats.conns_refused.fetch_add(1, Ordering::Relaxed);
            refuse(
                &inner,
                stream,
                ErrorFrame::Busy {
                    active,
                    max: inner.cfg.max_connections,
                },
            );
            continue;
        }
        inner.active.fetch_add(1, Ordering::AcqRel);
        inner.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let conn_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name("xlayer-net-conn".to_string())
            .spawn(move || {
                let guard = ActiveGuard(Arc::clone(&conn_inner));
                serve_connection(&conn_inner, stream);
                drop(guard);
            });
        match spawned {
            Ok(h) => workers.push(h),
            Err(_) => {
                // Spawn failed: undo the reservation and drop the peer.
                inner.active.fetch_sub(1, Ordering::AcqRel);
            }
        }
        // Reap finished workers so the handle list stays bounded on
        // long-running services.
        workers.retain(|h| !h.is_finished());
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Best-effort typed refusal on a connection we will not serve.
fn refuse(inner: &Inner, mut stream: TcpStream, err: ErrorFrame) {
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let is_busy = matches!(err, ErrorFrame::Busy { .. });
    if stream.write_all(&Response::Error(err).encode(0)).is_ok() && is_busy {
        inner.stats.busy_frames.fetch_add(1, Ordering::Relaxed);
    }
}

/// Outcome of one attempt to pull a frame off a worker's socket.
enum Recv {
    /// A checksum-verified frame, its payload in a pooled buffer.
    Frame {
        /// Frame opcode.
        opcode: Opcode,
        /// Frame request id.
        request_id: u64,
        /// Verified payload bytes (returned to the pool on drop).
        payload: PooledBuf,
    },
    /// Clean EOF or fatal I/O: drop the connection quietly.
    Closed,
    /// Stop flag observed while idle.
    Stopping,
    /// The header was framed correctly but the body failed verification;
    /// stream sync is intact, answer `BadRequest` and keep serving.
    Malformed(String),
}

/// Read exactly `buf.len()` bytes, treating read timeouts as idle ticks at
/// which to re-check the stop flag. Returns `None` on clean EOF before the
/// first byte, on fatal I/O, or when stopping mid-read.
fn read_full(inner: &Inner, stream: &mut TcpStream, buf: &mut [u8], idle_ok: bool) -> Option<bool> {
    let mut off = 0usize;
    while off < buf.len() {
        match stream.read(&mut buf[off..]) {
            Ok(0) => return None,
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if inner.stop.load(Ordering::Acquire) {
                    return if off == 0 && idle_ok {
                        Some(false)
                    } else {
                        None
                    };
                }
            }
            Err(_) => return None,
        }
    }
    Some(true)
}

fn recv_frame(inner: &Inner, stream: &mut TcpStream) -> Recv {
    let mut header_buf = [0u8; HEADER_LEN];
    match read_full(inner, stream, &mut header_buf, true) {
        None => return Recv::Closed,
        Some(false) => return Recv::Stopping,
        Some(true) => {}
    }
    let header = match decode_header(&header_buf) {
        Ok(h) => h,
        Err(e) => {
            // Framing is lost; answer once and drop the connection.
            inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            let _ = stream.write_all(
                &Response::Error(ErrorFrame::BadRequest {
                    detail: e.to_string(),
                })
                .encode(0),
            );
            return Recv::Closed;
        }
    };
    let mut payload = inner.pool.acquire(header.payload_len as usize);
    match read_full(inner, stream, &mut payload, false) {
        Some(true) => {}
        _ => return Recv::Closed,
    }
    inner
        .stats
        .bytes_in
        .fetch_add((HEADER_LEN + payload.len()) as u64, Ordering::Relaxed);
    if let Err(e) = verify_payload(&header, &payload) {
        return Recv::Malformed(e.to_string());
    }
    Recv::Frame {
        opcode: header.opcode,
        request_id: header.request_id,
        payload,
    }
}

/// Encode `response` into pooled scratch and send it header+body vectored.
fn send_response(
    inner: &Inner,
    stream: &mut TcpStream,
    request_id: u64,
    response: &Response,
) -> std::io::Result<()> {
    let mut scratch = inner.pool.acquire(0);
    response.encode_body(&mut scratch);
    let header = frame_header(
        response.opcode(),
        request_id,
        scratch.len() as u32,
        checksum(&scratch),
    );
    write_vectored_all(stream, &[&header, &scratch])?;
    inner
        .stats
        .bytes_out
        .fetch_add((HEADER_LEN + scratch.len()) as u64, Ordering::Relaxed);
    Ok(())
}

fn serve_connection(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let (request_id, response, shutdown) = match recv_frame(inner, &mut stream) {
            Recv::Closed => return,
            Recv::Stopping => return,
            Recv::Malformed(detail) => {
                inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                (0, Response::Error(ErrorFrame::BadRequest { detail }), false)
            }
            Recv::Frame {
                opcode,
                request_id,
                payload,
            } => {
                let decoded = Request::decode_body(opcode, &payload);
                drop(payload); // back to the pool before serving
                match decoded {
                    Err(e) => {
                        inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                        (
                            request_id,
                            Response::Error(ErrorFrame::BadRequest {
                                detail: e.to_string(),
                            }),
                            false,
                        )
                    }
                    Ok(Request::PutChunked { desc, chunk_size }) => {
                        if serve_put_chunked(inner, &mut stream, request_id, desc, chunk_size) {
                            continue;
                        }
                        return;
                    }
                    Ok(Request::GetChunked {
                        name,
                        version,
                        query,
                        chunk_size,
                    }) => {
                        if serve_get_chunked(
                            inner,
                            &mut stream,
                            request_id,
                            &name,
                            version,
                            query,
                            chunk_size,
                        ) {
                            continue;
                        }
                        return;
                    }
                    Ok(req) => {
                        let shutdown = matches!(req, Request::Shutdown);
                        (request_id, handle_request(inner, req), shutdown)
                    }
                }
            }
        };
        if send_response(inner, &mut stream, request_id, &response).is_err() {
            return;
        }
        if shutdown {
            inner.stop.store(true, Ordering::Release);
            inner.poke();
            return;
        }
    }
}

/// One received chunk-stream frame, already length-read off the socket.
enum StreamFrame {
    /// A `ChunkData` frame: decoded prefix plus where its data landed.
    Data {
        /// Object index from the 12-byte prefix.
        index: u32,
        /// Byte offset from the 12-byte prefix.
        offset: u64,
        /// Length of the data bytes that followed the prefix.
        data_len: usize,
        /// `checksum(data)` over the data bytes as received — the cacheable
        /// half of the frame checksum.
        data_sum: u32,
        /// Whether the frame checksum (`checksum(prefix) ^ checksum(data)`)
        /// verified.
        checksum_ok: bool,
    },
    /// The stream's `ChunkEnd` terminal frame.
    End(ChunkEnd),
}

/// Read one frame of an inbound chunk stream. `ChunkData` data bytes land
/// in `dst` when the prefix passes `place` (which maps a decoded
/// `(index, offset, data_len)` to a destination range), otherwise in a
/// pooled discard buffer so the stream stays framed.
///
/// Returns `Ok(None)` when the connection died or the header desynced
/// (caller drops the connection); `Err(detail)` for in-stream protocol
/// violations where framing survives (caller keeps draining).
fn recv_stream_frame(
    inner: &Inner,
    stream: &mut TcpStream,
    request_id: u64,
    dst: &mut [u8],
    place: impl Fn(u32, u64, usize) -> Option<usize>,
) -> Option<Result<StreamFrame, String>> {
    let mut header_buf = [0u8; HEADER_LEN];
    match read_full(inner, stream, &mut header_buf, false) {
        Some(true) => {}
        _ => return None,
    }
    let header = match decode_header(&header_buf) {
        Ok(h) => h,
        Err(_) => {
            inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
    };
    let frame_bytes = (HEADER_LEN + header.payload_len as usize) as u64;
    // Any in-stream violation still has to consume the frame's payload to
    // keep the connection framed; collect the verdict, then read.
    let verdict: Result<(), String> = if header.request_id != request_id {
        Err(format!(
            "frame for request {} interleaved into stream {request_id}",
            header.request_id
        ))
    } else {
        Ok(())
    };
    match header.opcode {
        Opcode::ChunkData if header.payload_len as usize >= CHUNK_PREFIX_LEN => {
            let mut prefix = [0u8; CHUNK_PREFIX_LEN];
            match read_full(inner, stream, &mut prefix, false) {
                Some(true) => {}
                _ => return None,
            }
            let (index, offset) = decode_chunk_prefix(&prefix);
            let data_len = header.payload_len as usize - CHUNK_PREFIX_LEN;
            let mut data_sum = checksum(&[]);
            let placed = if verdict.is_ok() {
                place(index, offset, data_len)
            } else {
                None
            };
            let read_ok = match placed {
                Some(at) => read_full(inner, stream, &mut dst[at..at + data_len], false)
                    .map(|_| {
                        data_sum = checksum(&dst[at..at + data_len]);
                    })
                    .is_some(),
                None => {
                    let mut discard = inner.pool.acquire(data_len);
                    read_full(inner, stream, &mut discard, false)
                        .map(|_| {
                            data_sum = checksum(&discard);
                        })
                        .is_some()
                }
            };
            if !read_ok {
                return None;
            }
            inner
                .stats
                .bytes_in
                .fetch_add(frame_bytes, Ordering::Relaxed);
            if let Err(detail) = verdict {
                return Some(Err(detail));
            }
            if placed.is_none() {
                return Some(Err(format!(
                    "chunk (object {index}, offset {offset}, {data_len} B) out of sequence"
                )));
            }
            Some(Ok(StreamFrame::Data {
                index,
                offset,
                data_len,
                data_sum,
                checksum_ok: checksum(&prefix) ^ data_sum == header.checksum,
            }))
        }
        _ => {
            // ChunkEnd, an undersized ChunkData, or a foreign opcode: small
            // payload, read it whole.
            let mut payload = inner.pool.acquire(header.payload_len as usize);
            match read_full(inner, stream, &mut payload, false) {
                Some(true) => {}
                _ => return None,
            }
            inner
                .stats
                .bytes_in
                .fetch_add(frame_bytes, Ordering::Relaxed);
            if let Err(detail) = verdict {
                return Some(Err(detail));
            }
            if verify_payload(&header, &payload).is_err() {
                return Some(Err("chunk stream frame checksum mismatch".to_string()));
            }
            match header.opcode {
                Opcode::ChunkEnd => match decode_chunk_end(&payload) {
                    Ok(end) => Some(Ok(StreamFrame::End(end))),
                    Err(e) => Some(Err(e.to_string())),
                },
                other => Some(Err(format!(
                    "opcode {:#04x} inside a chunk stream",
                    other as u8
                ))),
            }
        }
    }
}

/// Serve one inbound `PutChunked` stream: assemble chunks directly into
/// the destination payload buffer, then commit it to the space. Returns
/// `false` when the connection must close.
fn serve_put_chunked(
    inner: &Inner,
    stream: &mut TcpStream,
    request_id: u64,
    desc: ObjectDesc,
    chunk_size: u32,
) -> bool {
    inner.stats.puts.fetch_add(1, Ordering::Relaxed);
    let chunk = clamp_chunk_size(chunk_size) as u64;
    // Head-of-stream rejections: the client is already committed to
    // sending the whole stream (blocking sockets both sides), so drain to
    // its ChunkEnd before answering, and keep the connection.
    let early = if !desc.is_consistent() || desc.bytes > MAX_CHUNKED_OBJECT {
        Some(ErrorFrame::BadRequest {
            detail: "inconsistent chunked object descriptor".to_string(),
        })
    } else if desc.bytes
        > inner
            .space
            .capacity()
            .saturating_add(inner.space.disk_headroom())
    {
        // With a disk tier attached, an object larger than RAM can still
        // land on the spill log, so the bound is memory capacity plus the
        // tier's remaining disk budget (headroom is 0 without a tier). An
        // object that cannot fit in either tier is rejected here, before
        // its declared size is allocated for chunk assembly — a hostile
        // descriptor must not size the allocation; MAX_CHUNKED_OBJECT
        // stays the absolute ceiling when the disk budget is unbounded.
        inner.stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
        Some(ErrorFrame::OutOfMemory {
            cap: inner.space.capacity(),
            used: inner.space.used(),
            requested: desc.bytes,
        })
    } else {
        None
    };
    let total = desc.bytes as usize;
    // The destination allocation IS the stored object's payload — chunks
    // assemble into it in place; there is no whole-payload staging copy.
    let mut buf = if early.is_none() {
        vec![0u8; total]
    } else {
        Vec::new()
    };
    let mut failed: Option<String> = early.as_ref().map(|e| e.to_string());
    let mut next_offset = 0u64;
    // Per-chunk data checksums, learned for free from the stream's own
    // verification — cached with the committed object so later chunked
    // gets never re-hash the payload.
    let mut sums: Vec<u32> = Vec::with_capacity((total / chunk.max(1) as usize) + 1);
    let end = loop {
        let expected = next_offset;
        let dead = failed.is_some();
        let frame = recv_stream_frame(inner, stream, request_id, &mut buf, |index, offset, len| {
            // Single-object put stream: index 0, strictly sequential
            // offsets, full chunks except the last. Once the stream has
            // failed, everything drains to discard.
            let len = len as u64;
            let end_off = offset.checked_add(len)?;
            let sequential = !dead && index == 0 && offset == expected && end_off <= desc.bytes;
            let full_or_last = len == chunk || end_off == desc.bytes;
            if sequential && full_or_last {
                Some(offset as usize)
            } else {
                None
            }
        });
        match frame {
            None => return false,
            Some(Ok(StreamFrame::Data {
                index,
                offset,
                data_len,
                data_sum,
                checksum_ok,
            })) => {
                if !checksum_ok {
                    failed.get_or_insert_with(|| {
                        format!("chunk (object {index}, offset {offset}) failed its checksum")
                    });
                } else if failed.is_none() {
                    next_offset = offset + data_len as u64;
                    sums.push(data_sum);
                }
            }
            Some(Ok(StreamFrame::End(end))) => break end,
            Some(Err(detail)) => {
                failed.get_or_insert(detail);
            }
        }
    };
    if failed.is_none() && (next_offset != desc.bytes || end.objects != 1) {
        failed = Some(format!(
            "chunk stream ended after {next_offset} of {} bytes",
            desc.bytes
        ));
    }
    if failed.is_none() && end.total_bytes != desc.bytes {
        failed = Some(format!(
            "chunk stream total {} does not match descriptor {}",
            end.total_bytes, desc.bytes
        ));
    }
    let response = if let Some(err) = early {
        Response::Error(err)
    } else if let Some(detail) = failed {
        inner.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
        Response::Error(ErrorFrame::BadRequest { detail })
    } else {
        match DataObject::from_wire(desc, Bytes::from(buf)) {
            None => Response::Error(ErrorFrame::BadRequest {
                detail: "assembled object is inconsistent".to_string(),
            }),
            Some(obj) => {
                let obj = Arc::new(obj);
                match inner.space.put(Arc::clone(&obj)) {
                    Ok(shard) => {
                        inner.chunk_sums.insert(&obj, chunk as u32, Arc::new(sums));
                        Response::PutChunkedOk {
                            shard: shard as u32,
                        }
                    }
                    Err(StagingError::OutOfMemory {
                        cap,
                        used,
                        requested,
                    }) => {
                        inner.stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
                        Response::Error(ErrorFrame::OutOfMemory {
                            cap,
                            used,
                            requested,
                        })
                    }
                    Err(StagingError::NeedsReduction { factor }) => {
                        inner.stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
                        Response::Error(ErrorFrame::NeedsReduction { factor })
                    }
                }
            }
        }
    };
    send_response(inner, stream, request_id, &response).is_ok()
}

/// Serve one `GetChunked`: answer with the matching descriptors, then
/// stream every object's payload as chunk frames sliced straight out of
/// the `Arc`-held objects — no payload copy. Returns `false` when the
/// connection must close.
fn serve_get_chunked(
    inner: &Inner,
    stream: &mut TcpStream,
    request_id: u64,
    name: &str,
    version: u64,
    query: Option<xlayer_amr::boxes::IBox>,
    chunk_size: u32,
) -> bool {
    inner.stats.gets.fetch_add(1, Ordering::Relaxed);
    let chunk = clamp_chunk_size(chunk_size.min(inner.cfg.chunk_size)) as usize;
    let objs = inner.space.get(name, version, query.as_ref());
    let descs: Vec<ObjectDesc> = objs.iter().map(|o| o.desc.clone()).collect();
    let head = Response::GetChunkedOk {
        descs,
        chunk_size: chunk as u32,
    };
    if send_response(inner, stream, request_id, &head).is_err() {
        return false;
    }
    let mut total = 0u64;
    for (i, obj) in objs.iter().enumerate() {
        let payload: &[u8] = obj.payload.as_ref();
        // One hash pass per (object, chunk size) for the object's lifetime:
        // learned at put time or computed on the first get, then every
        // frame's checksum comes from the cache and the payload bytes are
        // only touched by the socket write.
        let sums = match inner.chunk_sums.lookup(obj, chunk as u32) {
            Some(sums) => {
                inner.stats.chunksum_hits.fetch_add(1, Ordering::Relaxed);
                sums
            }
            None => {
                inner.stats.chunksum_misses.fetch_add(1, Ordering::Relaxed);
                let fresh = Arc::new(xlayer_staging::sum::chunk_sums(payload, chunk));
                inner
                    .chunk_sums
                    .insert(obj, chunk as u32, Arc::clone(&fresh));
                fresh
            }
        };
        let mut off = 0usize;
        let mut k = 0usize;
        while off < payload.len() {
            let n = chunk.min(payload.len() - off);
            let data = &payload[off..off + n];
            let (header, prefix) = match sums.get(k) {
                Some(&s) => chunk_data_parts_cached(request_id, i as u32, off as u64, s, n),
                None => chunk_data_parts(request_id, i as u32, off as u64, data),
            };
            if write_vectored_all(stream, &[&header, &prefix, data]).is_err() {
                return false;
            }
            inner.stats.bytes_out.fetch_add(
                (HEADER_LEN + CHUNK_PREFIX_LEN + n) as u64,
                Ordering::Relaxed,
            );
            off += n;
            k += 1;
            total += n as u64;
        }
    }
    let end = encode_chunk_end(
        request_id,
        ChunkEnd {
            objects: objs.len() as u32,
            total_bytes: total,
        },
    );
    if stream.write_all(&end).is_err() {
        return false;
    }
    inner
        .stats
        .bytes_out
        .fetch_add(end.len() as u64, Ordering::Relaxed);
    true
}

fn handle_request(inner: &Inner, req: Request) -> Response {
    let stats = &inner.stats;
    match req {
        Request::Put(obj) => {
            stats.puts.fetch_add(1, Ordering::Relaxed);
            match inner.space.put(obj) {
                Ok(shard) => Response::PutOk {
                    shard: shard as u32,
                },
                Err(StagingError::OutOfMemory {
                    cap,
                    used,
                    requested,
                }) => {
                    stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ErrorFrame::OutOfMemory {
                        cap,
                        used,
                        requested,
                    })
                }
                Err(StagingError::NeedsReduction { factor }) => {
                    stats.rejected_oom.fetch_add(1, Ordering::Relaxed);
                    Response::Error(ErrorFrame::NeedsReduction { factor })
                }
            }
        }
        Request::Get {
            name,
            version,
            query,
        } => {
            stats.gets.fetch_add(1, Ordering::Relaxed);
            let objs = inner
                .space
                .get(&name, version, query.as_ref())
                .iter()
                .map(|o| o.as_ref().clone())
                .collect();
            Response::GetOk(objs)
        }
        Request::Query { name, version } => {
            stats.queries.fetch_add(1, Ordering::Relaxed);
            Response::QueryOk(inner.space.describe(&name, version))
        }
        Request::Delete {
            name,
            before_version,
        } => {
            stats.deletes.fetch_add(1, Ordering::Relaxed);
            Response::DeleteOk {
                bytes_freed: inner.space.evict_before(&name, before_version),
            }
        }
        Request::Stats => {
            stats.stats_calls.fetch_add(1, Ordering::Relaxed);
            Response::StatsOk(stats.snapshot(&inner.space, &inner.pool))
        }
        Request::Shutdown => Response::ShutdownOk,
        // Chunked streams never reach here — serve_connection owns the
        // socket for the stream's lifetime and intercepts them.
        Request::PutChunked { .. } | Request::GetChunked { .. } => {
            Response::Error(ErrorFrame::BadRequest {
                detail: "chunked request outside a connection stream".to_string(),
            })
        }
    }
}
