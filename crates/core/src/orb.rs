//! The ORB runtime: configuration, client-side resolution, server loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use zc_buffers::{CopyMeter, PagePool};
use zc_cdr::CdrDecoder;
use zc_giop::{Handshake, Ior, SystemException, SystemExceptionKind};
use zc_trace::{EventKind, OrbTelemetry, SpoolConfig, SpoolWriter, Telemetry};
use zc_transport::{
    Acceptor, Connection, SimNetwork, TcpTransportListener, TransportCtx, TransportError,
};

use crate::adapter::{ObjectAdapter, ServerRequest};
use crate::admission::{AdmissionConfig, AdmissionControl, ShedReason};
use crate::conn::{ConnTuning, GiopConn};
use crate::proxy::ObjectRef;
use crate::retry::{FailureVerdict, HealthRegistry, RetryPolicy};
use crate::{OrbError, OrbResult};

/// Which transport an ORB instance uses.
#[derive(Clone)]
pub enum TransportSel {
    /// The in-process simulated network.
    Sim(SimNetwork),
    /// Real loopback TCP.
    Tcp,
}

/// ORB configuration (fixed at build time).
#[derive(Clone)]
pub struct OrbConfig {
    /// Offer the zero-copy deposit path during negotiation.
    pub zc_enabled: bool,
    /// Connection tuning (ablation switches).
    pub tuning: ConnTuning,
    /// Pretend to be a foreign architecture in handshakes — forces the
    /// conventional, fully-marshaled path (heterogeneity experiments).
    pub pretend_foreign: bool,
    /// Client-side retry/backoff/circuit-breaker policy.
    pub retry: RetryPolicy,
    /// Server-side admission budgets (default: unlimited — no shedding).
    pub admission: AdmissionConfig,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            zc_enabled: true,
            tuning: ConnTuning::default(),
            pretend_foreign: false,
            retry: RetryPolicy::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// A client connection shared by every ObjectRef resolved to one endpoint.
type SharedConn = Arc<Mutex<GiopConn>>;

struct OrbInner {
    ctx: TransportCtx,
    transport: TransportSel,
    config: OrbConfig,
    adapter: Arc<ObjectAdapter>,
    conn_cache: Mutex<HashMap<(String, u16), SharedConn>>,
    endpoint_health: HealthRegistry,
    admission: AdmissionControl,
    /// Background trace-spool writer, if configured: held so its final
    /// drain runs when the last ORB clone drops. Never read — the writer
    /// only needs to live exactly as long as the ORB.
    _spool: Option<SpoolWriter>,
}

/// The Object Request Broker. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Orb {
    inner: Arc<OrbInner>,
}

impl Orb {
    /// Start building an ORB.
    pub fn builder() -> OrbBuilder {
        OrbBuilder::default()
    }

    /// The servant registry.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.inner.adapter
    }

    /// The copy meter shared by every layer of this ORB.
    pub fn meter(&self) -> Arc<CopyMeter> {
        Arc::clone(&self.inner.ctx.meter)
    }

    /// The deposit-buffer pool.
    pub fn pool(&self) -> PagePool {
        self.inner.ctx.pool.clone()
    }

    /// The ORB's configuration.
    pub fn config(&self) -> &OrbConfig {
        &self.inner.config
    }

    /// The ORB's telemetry, borrowed (no refcount traffic).
    pub(crate) fn tele(&self) -> &Telemetry {
        &self.inner.ctx.telemetry
    }

    /// The ORB's telemetry handle (disabled unless installed via
    /// [`OrbBuilder::telemetry`]).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.inner.ctx.telemetry)
    }

    /// One merged observability snapshot: flight-recorder state, copy
    /// meter, transport totals, pool statistics and ORB metrics.
    pub fn telemetry_snapshot(&self) -> OrbTelemetry {
        self.inner
            .ctx
            .telemetry
            .orb_snapshot(self.inner.ctx.meter.snapshot(), self.inner.ctx.pool.stats())
    }

    fn local_handshake(&self) -> Handshake {
        if self.inner.config.pretend_foreign {
            Handshake::foreign()
        } else {
            Handshake::local(self.inner.config.zc_enabled)
        }
    }

    fn dial(&self, host: &str, port: u16) -> OrbResult<Box<dyn Connection>> {
        match &self.inner.transport {
            TransportSel::Sim(net) => Ok(net.connect(port, self.inner.ctx.clone())?),
            TransportSel::Tcp => {
                let connector = zc_transport::TcpConnector {
                    ctx: self.inner.ctx.clone(),
                };
                Ok(zc_transport::Connector::connect(&connector, host, port)?)
            }
        }
    }

    fn establish(&self, host: &str, port: u16) -> OrbResult<GiopConn> {
        let conn = self.dial(host, port)?;
        GiopConn::client(
            conn,
            self.local_handshake(),
            self.inner.ctx.clone(),
            self.inner.config.tuning,
        )
    }

    /// The ORB's retry/breaker policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.inner.config.retry
    }

    /// The server-side admission gate (diagnostics: budgets + in-flight).
    pub fn admission(&self) -> &AdmissionControl {
        &self.inner.admission
    }

    /// Fail fast with `TRANSIENT` while `endpoint`'s circuit breaker is
    /// open (an elapsed cooldown admits one half-open trial).
    pub(crate) fn breaker_check(&self, endpoint: &(String, u16)) -> OrbResult<()> {
        match self.inner.endpoint_health.check(endpoint) {
            Ok(half_open_admitted) => {
                if half_open_admitted {
                    // Open → half-open counts as closed for the gauge; a
                    // failed trial re-raises it via note_endpoint_failure.
                    self.tele().emit(EventKind::BreakerClose, 0, 0, 0);
                }
                Ok(())
            }
            Err(_remaining) => Err(OrbError::System(SystemException {
                kind: SystemExceptionKind::Transient,
                minor: 1,
                completed: 1, // COMPLETED_NO: the call was never attempted
            })),
        }
    }

    /// Record a failed attempt against `endpoint`; opens the breaker (with
    /// a telemetry event) at the policy threshold.
    pub(crate) fn note_endpoint_failure(&self, endpoint: &(String, u16)) {
        if let FailureVerdict::JustOpened(failures) = self
            .inner
            .endpoint_health
            .on_failure(endpoint, &self.inner.config.retry)
        {
            self.tele()
                .emit(EventKind::BreakerOpen, 0, 0, failures as u64);
        }
    }

    /// Record a successful call: `endpoint` is healthy, breaker resets.
    pub(crate) fn note_endpoint_success(&self, endpoint: &(String, u16)) {
        if self.inner.endpoint_health.on_success(endpoint) {
            self.tele().emit(EventKind::BreakerClose, 0, 0, 0);
        }
    }

    /// Replace the connection inside `shared` with a freshly established
    /// one — the swap heals every `ObjectRef` clone sharing the `Arc` as
    /// well as the connection cache entry.
    pub(crate) fn reconnect_shared(
        &self,
        endpoint: &(String, u16),
        shared: &SharedConn,
        update_cache: bool,
    ) -> OrbResult<()> {
        self.breaker_check(endpoint)?;
        let fresh = match self.establish(&endpoint.0, endpoint.1) {
            Ok(c) => c,
            Err(e) => {
                self.note_endpoint_failure(endpoint);
                return Err(e);
            }
        };
        let conn_id = fresh.trace_conn_id();
        *shared.lock() = fresh;
        if update_cache {
            self.inner
                .conn_cache
                .lock()
                .insert(endpoint.clone(), Arc::clone(shared));
        }
        self.tele().emit(EventKind::Reconnect, conn_id, 0, conn_id);
        Ok(())
    }

    /// Drop `shared` from the connection cache (if it is still the cached
    /// entry for `endpoint`), so the next resolve dials fresh. Used after
    /// a reply timeout poisons the connection.
    pub(crate) fn quarantine(&self, endpoint: &(String, u16), shared: &SharedConn) {
        let mut cache = self.inner.conn_cache.lock();
        if let Some(cached) = cache.get(endpoint) {
            if Arc::ptr_eq(cached, shared) {
                cache.remove(endpoint);
            }
        }
    }

    /// Every dialable target of an IOR, in profile order (for a replicated
    /// object group: primary first, then the backups).
    fn group_targets(ior: &Ior) -> OrbResult<Vec<crate::proxy::Target>> {
        // At least one IIOP profile must exist (same error as before).
        ior.iiop_profile()?;
        Ok(ior
            .iiop_profiles()
            .map(|p| ((p.host.clone(), p.port), p.object_key.clone()))
            .collect())
    }

    /// Resolve an IOR to an object reference, reusing a cached connection
    /// to the same endpoint when one exists. Multi-profile IORs (replicated
    /// object groups) bind to the first live profile: profiles are tried in
    /// IOR order, skipping endpoints whose circuit breaker is open.
    pub fn resolve(&self, ior: &Ior) -> OrbResult<ObjectRef> {
        self.resolve_via(ior, true)
    }

    /// Resolve over a *fresh private* connection (needed for concurrent
    /// clients, since requests on one connection are serialized). Tries
    /// profiles in IOR order like [`Orb::resolve`].
    pub fn resolve_private(&self, ior: &Ior) -> OrbResult<ObjectRef> {
        self.resolve_via(ior, false)
    }

    /// Bind `ior` to its first live profile, over the shared connection
    /// cache when `cached` — a fresh connection joins it — or over a
    /// private connection the cache never sees, whose recoveries stay
    /// private too.
    fn resolve_via(&self, ior: &Ior, cached: bool) -> OrbResult<ObjectRef> {
        let targets = Self::group_targets(ior)?;
        let mut bound = None;
        let mut last_err = None;
        for (idx, (endpoint, _)) in targets.iter().enumerate() {
            let shared = cached
                .then(|| self.inner.conn_cache.lock().get(endpoint).cloned())
                .flatten();
            if let Some(conn) = shared {
                bound = Some((idx, conn));
                break;
            }
            if let Err(e) = self.breaker_check(endpoint) {
                last_err = Some(e);
                continue;
            }
            match self.establish(&endpoint.0, endpoint.1) {
                Ok(c) => {
                    let c = Arc::new(Mutex::new(c));
                    if cached {
                        self.inner
                            .conn_cache
                            .lock()
                            .insert(endpoint.clone(), Arc::clone(&c));
                    }
                    bound = Some((idx, c));
                    break;
                }
                Err(e) => {
                    self.note_endpoint_failure(endpoint);
                    last_err = Some(e);
                }
            }
        }
        let Some((idx, conn)) = bound else {
            return Err(last_err.expect("group_targets guarantees at least one profile"));
        };
        let (orb, ior) = (self.clone(), ior.clone());
        Ok(ObjectRef::bound(orb, ior, targets, idx, conn, cached))
    }

    /// Resolve an `IOR:…` string.
    pub fn resolve_str(&self, ior: &str) -> OrbResult<ObjectRef> {
        self.resolve(&Ior::from_ior_string(ior)?)
    }

    /// Start serving registered objects on `port` (0 = ephemeral).
    pub fn serve(&self, port: u16) -> OrbResult<ServerHandle> {
        let (acceptor, host, port): (Box<dyn Acceptor>, String, u16) = match &self.inner.transport {
            TransportSel::Sim(net) => {
                let l = net.listen(port, self.inner.ctx.clone())?;
                let (h, p) = l.endpoint();
                (Box::new(l), h, p)
            }
            TransportSel::Tcp => {
                let l = TcpTransportListener::bind(port, self.inner.ctx.clone())?;
                let (h, p) = l.endpoint();
                (Box::new(l), h, p)
            }
        };
        let shutdown = Arc::new(AtomicBool::new(false));
        let orb = self.clone();
        let flag = Arc::clone(&shutdown);
        let acceptor_thread = std::thread::Builder::new()
            .name(format!("zcorba-accept-{port}"))
            .spawn(move || {
                while let Ok(conn) = acceptor.accept() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let orb2 = orb.clone();
                    let _ = std::thread::Builder::new()
                        .name("zcorba-conn".to_string())
                        .spawn(move || orb2.run_connection(conn));
                }
            })
            .expect("spawn acceptor thread");
        Ok(ServerHandle {
            orb: self.clone(),
            host,
            port,
            shutdown,
            acceptor_thread: Some(acceptor_thread),
        })
    }

    /// Serve one accepted connection until it closes (the per-connection
    /// server loop: MICO's `GIOPConn::do_read` + dispatcher).
    fn run_connection(&self, conn: Box<dyn Connection>) {
        let mut gc = match GiopConn::server(
            conn,
            self.local_handshake(),
            self.inner.ctx.clone(),
            self.inner.config.tuning,
        ) {
            Ok(gc) => gc,
            Err(_) => return, // failed or garbled handshake: drop quietly
        };
        let tele = self.telemetry();
        let admission = self.inner.admission.clone();
        let conn_id = gc.trace_conn_id();
        loop {
            // Admission runs after the request header decodes but before
            // any deposit page is pinned: a shed costs one TRANSIENT
            // (completed = NO) reply. Control-plane objects (reserved
            // `_`-prefix keys, e.g. `_ZcTelemetry`) ride the reserved lane
            // so operators can still poll a saturated server. The ticket
            // holds the queue slot until dispatch completes. The message
            // lives in `inbound`; the request reads its header in place.
            let mut inbound = None;
            let gate = |header: &zc_giop::RequestView<'_>, announced, bulk| {
                let control = crate::admission::is_control_plane_key(header.object_key);
                admission.admit(control, announced, bulk).map_err(|reason| {
                    let kind = match reason {
                        ShedReason::QueueFull => EventKind::Shed,
                        ShedReason::Brownout => EventKind::Brownout,
                    };
                    tele.emit(kind, conn_id, 0, announced);
                    reason.exception()
                })
            };
            let (incoming, ticket) = match gc.recv_request_admitted(&mut inbound, gate) {
                Ok(Some(admitted)) => admitted,
                Ok(None) => continue, // shed, and answered so
                Err(OrbError::Transport(TransportError::Closed)) => break,
                Err(OrbError::Giop(zc_giop::GiopError::MessageTooLarge(_))) => {
                    // The announced size exceeded the hard cap: no huge
                    // allocation happened and there is no request id to
                    // attach a MARSHAL exception to — answer MessageError
                    // and drop the connection, per GIOP.
                    gc.send_message_error();
                    break;
                }
                Err(e) => {
                    // Unexpected teardown: dump the connection's recent
                    // flight-recorder events for post-mortem diagnosis.
                    if let Some(dump) = gc.post_mortem(16) {
                        eprintln!("zcorba: connection error: {e}\n{dump}");
                    }
                    break;
                }
            };
            let request_id = incoming.header.request_id;
            let response_expected = incoming.header.response_expected;
            let trace_id = incoming.trace_id;
            let dispatch_start = tele.is_enabled().then(std::time::Instant::now);
            // Load signal: the in-flight gauge brackets the dispatch.
            tele.note_dispatch_begin();

            // Build the argument decoder over the received body, wired to
            // the deposited blocks when the connection is in ZC mode.
            let mut dec = CdrDecoder::new(incoming.body, incoming.order).with_meter(self.meter());
            if incoming.zc {
                dec = dec.with_deposit_list(incoming.deposits);
            }
            let mut served_span = zc_trace::RequestSpan::disabled();
            let dispatch_outcome = dec
                .skip(incoming.args_offset)
                .map_err(OrbError::from)
                .and_then(|()| {
                    let enc = gc.body_encoder();
                    let mut sreq = ServerRequest::new(dec, enc).with_span(tele.request_span());
                    let r = self.inner.adapter.dispatch(
                        incoming.header.object_key,
                        incoming.header.operation,
                        &mut sreq,
                    );
                    let (enc, ex, _, span) = sreq.finish();
                    served_span = span;
                    r.map(|()| (enc, ex))
                });
            if let Some(start) = dispatch_start {
                let elapsed = start.elapsed().as_nanos() as u64;
                tele.emit(EventKind::Dispatch, gc.trace_conn_id(), trace_id, elapsed);
                // Servant time exclusive of the measured (de)marshal legs:
                // the three stages partition the dispatch window.
                let marshal_ns = served_span.get(zc_trace::Stage::ServerDemarshal)
                    + served_span.get(zc_trace::Stage::ServerReplyMarshal);
                served_span.add(
                    zc_trace::Stage::ServerDispatch,
                    elapsed.saturating_sub(marshal_ns),
                );
                served_span.commit(&tele, gc.trace_conn_id(), trace_id);
            }
            tele.note_dispatch_end();
            // The slot bounds the dispatch queue, not reply delivery: give
            // it back before the reply write, or a peer that already has
            // its reply can find the slot still taken by a writer thread
            // that was preempted on its way out of the send.
            drop(ticket);

            if !response_expected {
                continue;
            }
            let send_result = match dispatch_outcome {
                Ok((enc, None)) => gc.send_reply_ok(request_id, enc),
                Ok((_, Some(ex))) => gc.send_reply_exception(request_id, &ex),
                Err(OrbError::System(ex)) => gc.send_reply_exception(request_id, &ex),
                Err(OrbError::User(data)) => gc.send_reply_user(request_id, &data),
                Err(OrbError::Cdr(_)) => gc.send_reply_exception(
                    request_id,
                    &SystemException::new(SystemExceptionKind::Marshal, 1),
                ),
                Err(_) => gc.send_reply_exception(
                    request_id,
                    &SystemException::new(SystemExceptionKind::Internal, 1),
                ),
            };
            if send_result.is_err() {
                break;
            }
        }
        gc.send_close();
    }
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Orb(zc: {}, servants: {})",
            self.inner.config.zc_enabled,
            self.inner.adapter.len()
        )
    }
}

/// Builder for [`Orb`].
#[derive(Default)]
pub struct OrbBuilder {
    transport: Option<TransportSel>,
    config: OrbConfig,
    meter: Option<Arc<CopyMeter>>,
    pool: Option<PagePool>,
    telemetry: Option<Arc<Telemetry>>,
    spool: Option<SpoolConfig>,
}

impl OrbBuilder {
    /// Use the in-process simulated network.
    pub fn sim(mut self, net: SimNetwork) -> Self {
        self.transport = Some(TransportSel::Sim(net));
        self
    }

    /// Use real loopback TCP.
    pub fn tcp(mut self) -> Self {
        self.transport = Some(TransportSel::Tcp);
        self
    }

    /// Offer (or refuse) the zero-copy deposit path in negotiation.
    pub fn zc(mut self, enabled: bool) -> Self {
        self.config.zc_enabled = enabled;
        self
    }

    /// Account copies on a supplied meter (e.g. shared between the client
    /// and server ORBs of an experiment).
    pub fn meter(mut self, meter: Arc<CopyMeter>) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Use a specific deposit-buffer pool.
    pub fn pool(mut self, pool: PagePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Install a telemetry handle (flight recorder + metrics). Share one
    /// handle between the client and server ORBs of an experiment to get a
    /// single merged event stream. Omitted: telemetry is disabled and the
    /// data path pays one boolean check per would-be event.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Spool the flight recorder to durable, rotating segment files (see
    /// `zc_trace::SpoolConfig`). Requires an enabled telemetry handle to
    /// have anything to drain; the writer runs on its own thread and the
    /// data path is untouched — when no spool is configured, not one
    /// instruction is added. The writer's final drain runs when the last
    /// clone of the built ORB drops.
    pub fn trace_spool(mut self, config: SpoolConfig) -> Self {
        self.spool = Some(config);
        self
    }

    /// Ablation A4: disable out-of-band deposits (marshal bypass only).
    pub fn deposit_enabled(mut self, enabled: bool) -> Self {
        self.config.tuning.deposit_enabled = enabled;
        self
    }

    /// Ablation A1: couple data back into the control messages.
    pub fn separate_data(mut self, separate: bool) -> Self {
        self.config.tuning.separate_data = separate;
        self
    }

    /// Pretend to be a foreign architecture (forces conventional IIOP).
    pub fn pretend_foreign(mut self, foreign: bool) -> Self {
        self.config.pretend_foreign = foreign;
        self
    }

    /// Install a client-side retry/breaker policy (default:
    /// [`RetryPolicy::default`] — up to 3 attempts with exponential
    /// backoff; use [`RetryPolicy::none`] to disable recovery).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Install server-side admission budgets (default:
    /// [`AdmissionConfig::default`] — unlimited, never sheds; use
    /// [`AdmissionConfig::bounded`] for a bounded dispatch queue with
    /// brownout watermarks and a reserved control-plane lane).
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.config.admission = config;
        self
    }

    /// Build the ORB.
    ///
    /// # Panics
    /// If no transport was selected.
    pub fn build(self) -> Orb {
        let transport = self
            .transport
            .expect("OrbBuilder: select .sim(net) or .tcp()");
        let meter = self.meter.unwrap_or_else(CopyMeter::new_shared);
        let pool = self.pool.unwrap_or_else(PagePool::default_for_orb);
        let telemetry = self.telemetry.unwrap_or_else(Telemetry::disabled);
        let adapter = Arc::new(ObjectAdapter::new());
        // Every ORB serves the in-band introspection plane: the reserved
        // `_ZcTelemetry` object answers snapshot/exposition polls over
        // plain GIOP even when the caller never registered a servant. It
        // serves meter/pool accounting (tracked unconditionally) with a
        // disabled-telemetry handle too, so it is registered regardless.
        adapter.register_key(
            zc_cdr::wire::ZC_TELEMETRY_KEY,
            Arc::new(crate::introspect::TelemetryServant::new(
                Arc::clone(&telemetry),
                Arc::clone(&meter),
                pool.clone(),
            )),
        );
        let admission = AdmissionControl::new(self.config.admission);
        let spool = self.spool.and_then(|config| {
            match SpoolWriter::spawn(Arc::clone(&telemetry), config) {
                Ok(w) => Some(w),
                Err(e) => {
                    // Observability must never take the ORB down: a spool
                    // directory that cannot be created degrades to no spool.
                    eprintln!("zcorba: trace spool disabled: {e}");
                    None
                }
            }
        });
        Orb {
            inner: Arc::new(OrbInner {
                ctx: TransportCtx {
                    meter,
                    pool,
                    telemetry,
                },
                transport,
                config: self.config,
                adapter,
                conn_cache: Mutex::new(HashMap::new()),
                endpoint_health: HealthRegistry::default(),
                admission,
                _spool: spool,
            }),
        }
    }
}

/// A running server: endpoint information and lifecycle control.
pub struct ServerHandle {
    orb: Orb,
    host: String,
    port: u16,
    shutdown: Arc<AtomicBool>,
    acceptor_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Host peers should dial.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Port peers should dial.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Produce an IOR for an object registered under `key`.
    /// Returns an error if nothing is registered under that key.
    pub fn ior_for(&self, key: &str, type_id: &str) -> OrbResult<Ior> {
        if self.orb.adapter().find(key.as_bytes()).is_none() {
            return Err(OrbError::Unresolvable(format!(
                "no servant registered under key {key:?}"
            )));
        }
        Ok(Ior::new_iiop(
            type_id,
            &self.host,
            self.port,
            key.as_bytes(),
        ))
    }

    /// Stop accepting new connections and join the acceptor thread.
    /// Existing connections drain naturally as clients disconnect.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = self.orb.dial(&self.host.clone(), self.port);
        if let Some(h) = self.acceptor_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle({}:{})", self.host, self.port)
    }
}
