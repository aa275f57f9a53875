//! The zcorba Object Request Broker — a CORBA-style ORB with a zero-copy
//! bulk-data path.
//!
//! This crate is the Rust analogue of the modified MICO ORB of the paper:
//! the same layering (stub → static request → IIOP proxy → GIOP connection →
//! transport, mirrored on the server by a callback-driven receive loop,
//! demarshaling, and a method dispatcher), extended exactly where the paper
//! extends MICO:
//!
//! * a zero-copy sequence type ([`zc_cdr::ZcOctetSeq`]) whose marshaling is
//!   bypassed on negotiated connections;
//! * **separation of control- and data transfers** inside the connection:
//!   the GIOP Request/Reply (control) announces deposit blocks via a
//!   service-context manifest, and the blocks travel on the transport's
//!   data path straight into page-aligned buffers (§4.4/§4.5);
//! * per-connection negotiation of architecture and capability, falling
//!   back transparently to fully-marshaled IIOP for heterogeneous or
//!   ZC-unaware peers.
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use zc_orb::{Orb, ObjectAdapterExt, Servant, ServerRequest, OrbResult};
//! use zc_cdr::ZcOctetSeq;
//! use zc_transport::{SimConfig, SimNetwork};
//!
//! struct Echo;
//! impl Servant for Echo {
//!     fn repo_id(&self) -> &'static str { "IDL:zcorba/Echo:1.0" }
//!     fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
//!         match op {
//!             "echo" => {
//!                 let data: ZcOctetSeq = req.arg()?;
//!                 req.result(&data)
//!             }
//!             _ => req.bad_operation(op),
//!         }
//!     }
//! }
//!
//! let net = SimNetwork::new(SimConfig::zero_copy());
//! let server_orb = Orb::builder().sim(net.clone()).build();
//! server_orb.adapter().register("echo-1", Arc::new(Echo));
//! let server = server_orb.serve(0).unwrap();
//! let ior = server.ior_for("echo-1", "IDL:zcorba/Echo:1.0").unwrap();
//!
//! let client_orb = Orb::builder().sim(net).build();
//! let obj = client_orb.resolve(&ior).unwrap();
//! let payload = ZcOctetSeq::with_length(1 << 16);
//! let reply = obj.request("echo").arg(&payload).unwrap().invoke().unwrap();
//! let back: ZcOctetSeq = reply.result().unwrap();
//! assert_eq!(back.len(), payload.len());
//! server.shutdown();
//! ```

pub mod adapter;
pub mod admission;
pub mod collective;
pub mod conn;
pub mod introspect;
pub mod naming;
pub mod orb;
pub mod proxy;
pub mod retry;

pub use adapter::{ObjectAdapter, ObjectAdapterExt, Servant, ServerRequest};
pub use admission::{AdmissionConfig, AdmissionControl, AdmissionTicket, ShedReason};
pub use collective::{partition_into, ParGroup};
pub use conn::{ConnTuning, GiopConn};
pub use introspect::{TelemetryClient, TelemetryServant};
pub use naming::{install_name_service, NamingClient, NamingContextServant};
pub use orb::{Orb, OrbBuilder, OrbConfig, ServerHandle};
pub use proxy::{ObjectRef, Reply, StaticRequest};
pub use retry::RetryPolicy;

use zc_cdr::CdrError;
use zc_giop::{GiopError, SystemException};
use zc_transport::TransportError;

/// Errors surfaced by ORB operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrbError {
    /// Transport-level failure.
    Transport(TransportError),
    /// GIOP protocol failure.
    Giop(GiopError),
    /// CDR (de)marshaling failure.
    Cdr(CdrError),
    /// The server raised a CORBA system exception.
    System(SystemException),
    /// The server raised a declared (IDL `raises`) user exception; decode
    /// the members with [`UserExceptionData::decode`].
    User(UserExceptionData),
    /// Local protocol violation (mismatched reply ids, bad state, …).
    Protocol(String),
    /// The IOR cannot be resolved by this ORB's transport.
    Unresolvable(String),
}

impl From<TransportError> for OrbError {
    fn from(e: TransportError) -> Self {
        OrbError::Transport(e)
    }
}

impl From<GiopError> for OrbError {
    fn from(e: GiopError) -> Self {
        OrbError::Giop(e)
    }
}

impl From<CdrError> for OrbError {
    fn from(e: CdrError) -> Self {
        OrbError::Cdr(e)
    }
}

impl From<SystemException> for OrbError {
    fn from(e: SystemException) -> Self {
        OrbError::System(e)
    }
}

impl std::fmt::Display for OrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrbError::Transport(e) => write!(f, "transport: {e}"),
            OrbError::Giop(e) => write!(f, "giop: {e}"),
            OrbError::Cdr(e) => write!(f, "cdr: {e}"),
            OrbError::System(e) => write!(f, "system exception: {e}"),
            OrbError::User(u) => write!(f, "user exception: {}", u.repo_id),
            OrbError::Protocol(s) => write!(f, "orb protocol: {s}"),
            OrbError::Unresolvable(s) => write!(f, "unresolvable reference: {s}"),
        }
    }
}

impl std::error::Error for OrbError {}

/// Result alias for ORB operations.
pub type OrbResult<T> = Result<T, OrbError>;

/// The wire form of a raised user exception: its repository id plus the
/// still-encoded member body. Typed bindings (hand-written or generated by
/// `zc-idlc`) call [`UserExceptionData::decode`] to recover the members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserExceptionData {
    /// CORBA repository id of the exception type.
    pub repo_id: String,
    /// CDR-encoded members (own encoding origin).
    pub body: Vec<u8>,
    /// Byte order of `body`.
    pub order: zc_cdr::ByteOrder,
}

impl UserExceptionData {
    /// Decode the members as `T` if the repository id matches.
    pub fn decode<T: zc_cdr::CdrMarshal>(&self, repo_id: &str) -> Option<T> {
        if self.repo_id != repo_id {
            return None;
        }
        let mut dec = zc_cdr::CdrDecoder::new(&self.body, self.order);
        T::demarshal(&mut dec).ok()
    }
}

/// Build the error a servant returns to raise a declared user exception:
/// `return Err(raise_user("IDL:app/Conflict:1.0", &members));`
pub fn raise_user<T: zc_cdr::CdrMarshal>(repo_id: &str, members: &T) -> OrbError {
    let mut enc = zc_cdr::CdrEncoder::native();
    // Infallible for well-formed values; a marshal failure degrades to an
    // internal error rather than panicking the servant.
    if members.marshal(&mut enc).is_err() {
        return OrbError::Protocol(format!("failed to marshal user exception {repo_id}"));
    }
    OrbError::User(UserExceptionData {
        repo_id: repo_id.to_string(),
        body: enc.finish_stream(),
        order: zc_cdr::ByteOrder::native(),
    })
}
