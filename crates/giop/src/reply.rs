//! The GIOP Reply header, reply status and system exceptions.

use zc_cdr::{CdrDecoder, CdrEncoder, CdrError, CdrResult};

use crate::context::{write_context_list, ContextWriter, ServiceContext, ZcContexts};

zc_buffers::byte_enum! {
    /// Reply status codes (CORBA `ReplyStatusType`). The wire value is a
    /// CDR `unsigned long`; [`ReplyView::parse`] rejects every other value.
    pub enum ReplyStatus {
        /// Normal completion; result follows.
        NoException = 0, "NO_EXCEPTION";
        /// A declared (IDL `raises`) exception follows.
        UserException = 1, "USER_EXCEPTION";
        /// A CORBA system exception follows.
        SystemException = 2, "SYSTEM_EXCEPTION";
        /// The object lives elsewhere; an IOR follows.
        LocationForward = 3, "LOCATION_FORWARD";
    }
}

/// Write a GIOP Reply header at the start of a Reply message body: the
/// service contexts `contexts` emits, request id, status. The result value
/// / exception body follows in the same stream.
pub fn write_reply_header(
    enc: &mut CdrEncoder,
    request_id: u32,
    status: ReplyStatus,
    contexts: impl FnOnce(&mut ContextWriter<'_>),
) {
    write_context_list(enc, contexts);
    enc.write_u32(request_id);
    enc.write_u32(status as u32);
}

/// A GIOP Reply header read in place (see [`crate::RequestView`]).
#[derive(Debug, Clone, Copy)]
pub struct ReplyView<'a> {
    /// Service contexts (a reply carrying deposits announces them here).
    pub contexts: ZcContexts<'a>,
    /// Echoes the request id this reply answers.
    pub request_id: u32,
    /// Outcome discriminator.
    pub status: ReplyStatus,
}

impl<'a> ReplyView<'a> {
    /// Read the header at the start of a Reply message body; `dec` is left
    /// at the first byte after it.
    pub fn parse(dec: &mut CdrDecoder<'a>) -> CdrResult<ReplyView<'a>> {
        let contexts = ZcContexts::parse(dec)?;
        let request_id = dec.read_u32()?;
        let v = dec.read_u32()?;
        let status = u8::try_from(v).ok().and_then(ReplyStatus::from_u8);
        Ok(ReplyView {
            contexts,
            request_id,
            status: status.ok_or(CdrError::BadEnumValue(v))?,
        })
    }

    /// The header in owned form, every service context included.
    pub fn to_owned(&self) -> ReplyHeader {
        ReplyHeader {
            service_contexts: self.contexts.to_owned_list(),
            request_id: self.request_id,
            status: self.status,
        }
    }
}

/// A GIOP Reply header in owned form, for tests and tools (see
/// [`crate::RequestHeader`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Service contexts (a reply carrying deposits announces them here).
    pub service_contexts: Vec<ServiceContext>,
    /// Echoes the request id this reply answers.
    pub request_id: u32,
    /// Outcome discriminator.
    pub status: ReplyStatus,
}

impl ReplyHeader {
    /// A successful-reply header.
    pub fn ok(request_id: u32) -> ReplyHeader {
        ReplyHeader {
            service_contexts: Vec::new(),
            request_id,
            status: ReplyStatus::NoException,
        }
    }

    /// Encode onto a CDR stream.
    pub fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        write_reply_header(enc, self.request_id, self.status, |w| {
            self.service_contexts
                .iter()
                .for_each(|c| w.raw(c.id, &c.data))
        });
        Ok(())
    }

    /// Decode from a CDR stream.
    pub fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<ReplyHeader> {
        // zc-audit: allow(control-plane) — owned form for tests and tools, header fields only
        ReplyView::parse(dec).map(|view| view.to_owned())
    }
}

/// The standard system exceptions we raise (a pragmatic subset of the
/// CORBA set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemExceptionKind {
    /// Target object does not exist.
    ObjectNotExist,
    /// Operation name not understood by the target.
    BadOperation,
    /// Marshaling/demarshaling failure.
    Marshal,
    /// Communication failure.
    CommFailure,
    /// Feature not implemented.
    NoImplement,
    /// Internal ORB error.
    Internal,
    /// Request was cancelled or timed out.
    Timeout,
    /// Transient failure; retry may succeed.
    Transient,
}

impl SystemExceptionKind {
    /// The CORBA repository id for this exception.
    pub fn repo_id(self) -> &'static str {
        match self {
            SystemExceptionKind::ObjectNotExist => "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0",
            SystemExceptionKind::BadOperation => "IDL:omg.org/CORBA/BAD_OPERATION:1.0",
            SystemExceptionKind::Marshal => "IDL:omg.org/CORBA/MARSHAL:1.0",
            SystemExceptionKind::CommFailure => "IDL:omg.org/CORBA/COMM_FAILURE:1.0",
            SystemExceptionKind::NoImplement => "IDL:omg.org/CORBA/NO_IMPLEMENT:1.0",
            SystemExceptionKind::Internal => "IDL:omg.org/CORBA/INTERNAL:1.0",
            SystemExceptionKind::Timeout => "IDL:omg.org/CORBA/TIMEOUT:1.0",
            SystemExceptionKind::Transient => "IDL:omg.org/CORBA/TRANSIENT:1.0",
        }
    }

    /// Recover the kind from a repository id.
    pub fn from_repo_id(id: &str) -> Option<SystemExceptionKind> {
        Some(match id {
            "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0" => SystemExceptionKind::ObjectNotExist,
            "IDL:omg.org/CORBA/BAD_OPERATION:1.0" => SystemExceptionKind::BadOperation,
            "IDL:omg.org/CORBA/MARSHAL:1.0" => SystemExceptionKind::Marshal,
            "IDL:omg.org/CORBA/COMM_FAILURE:1.0" => SystemExceptionKind::CommFailure,
            "IDL:omg.org/CORBA/NO_IMPLEMENT:1.0" => SystemExceptionKind::NoImplement,
            "IDL:omg.org/CORBA/INTERNAL:1.0" => SystemExceptionKind::Internal,
            "IDL:omg.org/CORBA/TIMEOUT:1.0" => SystemExceptionKind::Timeout,
            "IDL:omg.org/CORBA/TRANSIENT:1.0" => SystemExceptionKind::Transient,
            _ => return None,
        })
    }
}

/// A system exception as carried in a Reply body with
/// [`ReplyStatus::SystemException`]: repository id, minor code, completion
/// status (0 = yes, 1 = no, 2 = maybe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemException {
    /// Which standard exception.
    pub kind: SystemExceptionKind,
    /// Vendor-specific minor code.
    pub minor: u32,
    /// Whether the operation had completed when the exception was raised.
    pub completed: u32,
}

impl SystemException {
    /// Convenience constructor with `completed = NO`.
    pub fn new(kind: SystemExceptionKind, minor: u32) -> SystemException {
        SystemException {
            kind,
            minor,
            completed: 1,
        }
    }

    /// Encode as a Reply body.
    pub fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        enc.write_string(self.kind.repo_id());
        enc.write_u32(self.minor);
        enc.write_u32(self.completed);
        Ok(())
    }

    /// Decode from a Reply body.
    pub fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<SystemException> {
        let id = dec.read_str()?;
        let kind = SystemExceptionKind::from_repo_id(id).ok_or(CdrError::InvalidString)?;
        let minor = dec.read_u32()?;
        let completed = dec.read_u32()?;
        Ok(SystemException {
            kind,
            minor,
            completed,
        })
    }
}

impl std::fmt::Display for SystemException {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (minor {}, completed {})",
            self.kind.repo_id(),
            self.minor,
            self.completed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zc_cdr::ByteOrder;

    #[test]
    fn reply_header_roundtrip() {
        for status in ReplyStatus::ALL {
            let h = ReplyHeader {
                service_contexts: vec![],
                request_id: 9,
                status,
            };
            let mut enc = CdrEncoder::new(ByteOrder::Little);
            h.marshal(&mut enc).unwrap();
            let bytes = enc.finish_stream();
            let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
            assert_eq!(ReplyHeader::demarshal(&mut dec).unwrap(), h);
        }
    }

    /// The CORBA `ReplyStatusType` values, pinned through the decoder: a
    /// status is a u32 on the wire, so 256 must not wrap to `NoException`.
    #[test]
    fn reply_status_wire_values_are_the_spec_values() {
        use ReplyStatus::*;
        let spec = [NoException, UserException, SystemException, LocationForward];
        for v in 0..=256u32 {
            let mut enc = CdrEncoder::new(ByteOrder::Big);
            write_reply_header(&mut enc, 1, NoException, |_| {});
            let mut bytes = enc.finish_stream();
            let at = bytes.len() - 4;
            bytes[at..].copy_from_slice(&v.to_be_bytes());
            let got = ReplyView::parse(&mut CdrDecoder::new(&bytes, ByteOrder::Big));
            match spec.get(v as usize) {
                Some(&status) => {
                    assert_eq!(got.map(|view| view.status), Ok(status), "{v}");
                    let mut enc = CdrEncoder::new(ByteOrder::Big);
                    write_reply_header(&mut enc, 1, status, |_| {});
                    assert_eq!(enc.finish_stream()[at..], v.to_be_bytes(), "{status:?}");
                }
                None => assert_eq!(got.map(|view| view.status), Err(CdrError::BadEnumValue(v))),
            }
        }
    }

    #[test]
    fn system_exception_roundtrip_all_kinds() {
        let kinds = [
            SystemExceptionKind::ObjectNotExist,
            SystemExceptionKind::BadOperation,
            SystemExceptionKind::Marshal,
            SystemExceptionKind::CommFailure,
            SystemExceptionKind::NoImplement,
            SystemExceptionKind::Internal,
            SystemExceptionKind::Timeout,
            SystemExceptionKind::Transient,
        ];
        for kind in kinds {
            let e = SystemException::new(kind, 3);
            let mut enc = CdrEncoder::new(ByteOrder::Little);
            e.marshal(&mut enc).unwrap();
            let bytes = enc.finish_stream();
            let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
            assert_eq!(SystemException::demarshal(&mut dec).unwrap(), e);
            assert_eq!(
                SystemExceptionKind::from_repo_id(kind.repo_id()),
                Some(kind)
            );
        }
    }

    #[test]
    fn unknown_repo_id_rejected() {
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        enc.write_string("IDL:example/NotAThing:1.0");
        enc.write_u32(0);
        enc.write_u32(0);
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        assert!(SystemException::demarshal(&mut dec).is_err());
    }
}
