//! The GIOP Request header.

use zc_cdr::{CdrDecoder, CdrEncoder, CdrResult};

use crate::context::{write_context_list, ContextWriter, ServiceContext, ZcContexts};

/// Write a GIOP Request header (1.0-style layout, which both our versions
/// share) at the start of a Request message body: the service contexts
/// `contexts` emits, request id, response-expected flag, object key,
/// operation name, and principal (always empty here, as deprecated). The
/// parameter body follows the header in the same CDR stream.
pub fn write_request_header(
    enc: &mut CdrEncoder,
    request_id: u32,
    response_expected: bool,
    object_key: &[u8],
    operation: &str,
    contexts: impl FnOnce(&mut ContextWriter<'_>),
) {
    write_context_list(enc, contexts);
    enc.write_u32(request_id);
    enc.write_bool(response_expected);
    enc.write_u32(object_key.len() as u32);
    enc.write_raw(object_key);
    enc.write_string(operation);
    enc.write_u32(0); // principal: zero-length sequence (deprecated)
}

/// A GIOP Request header read in place: the key and the operation name are
/// windows of the received message, the zcorba service contexts `Copy`
/// values pulled out in one pass. Reading one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    /// Service contexts (the deposit manifest travels here).
    pub contexts: ZcContexts<'a>,
    /// Request id, unique per connection; replies echo it.
    pub request_id: u32,
    /// `false` for oneway operations — no Reply will be sent.
    pub response_expected: bool,
    /// Opaque key identifying the target object within the server ORB.
    pub object_key: &'a [u8],
    /// Operation (method) name.
    pub operation: &'a str,
}

impl<'a> RequestView<'a> {
    /// Read the header at the start of a Request message body; `dec` is
    /// left at the first byte after it.
    pub fn parse(dec: &mut CdrDecoder<'a>) -> CdrResult<RequestView<'a>> {
        let contexts = ZcContexts::parse(dec)?;
        let request_id = dec.read_u32()?;
        let response_expected = dec.read_bool()?;
        let object_key = dec.read_octet_seq_borrowed()?;
        let operation = dec.read_str()?;
        dec.read_octet_seq_borrowed()?; // principal
        Ok(RequestView {
            contexts,
            request_id,
            response_expected,
            object_key,
            operation,
        })
    }

    /// The header in owned form, every service context included.
    pub fn to_owned(&self) -> RequestHeader {
        RequestHeader {
            service_contexts: self.contexts.to_owned_list(),
            request_id: self.request_id,
            response_expected: self.response_expected,
            // zc-audit: allow(control-plane) — owned form for tests and tools; object keys are small identifiers
            object_key: self.object_key.to_vec(),
            operation: self.operation.to_string(),
        }
    }
}

/// A GIOP Request header in owned form — what tests and tools build and
/// compare. The ORB itself writes headers with [`write_request_header`]
/// and reads them as [`RequestView`]s; this type goes through both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Service contexts (deposit manifest travels here).
    pub service_contexts: Vec<ServiceContext>,
    /// Request id, unique per connection; replies echo it.
    pub request_id: u32,
    /// `false` for oneway operations — no Reply will be sent.
    pub response_expected: bool,
    /// Opaque key identifying the target object within the server ORB.
    pub object_key: Vec<u8>,
    /// Operation (method) name.
    pub operation: String,
}

impl RequestHeader {
    /// Construct a header with no service contexts.
    pub fn new(request_id: u32, object_key: Vec<u8>, operation: &str) -> RequestHeader {
        RequestHeader {
            service_contexts: Vec::new(),
            request_id,
            response_expected: true,
            object_key,
            operation: operation.to_string(),
        }
    }

    /// Encode onto a CDR stream (the start of a Request message body).
    pub fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        write_request_header(
            enc,
            self.request_id,
            self.response_expected,
            &self.object_key,
            &self.operation,
            |w| {
                self.service_contexts
                    .iter()
                    .for_each(|c| w.raw(c.id, &c.data))
            },
        );
        Ok(())
    }

    /// Decode from a CDR stream.
    pub fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<RequestHeader> {
        // zc-audit: allow(control-plane) — owned form for tests and tools, header fields only
        RequestView::parse(dec).map(|view| view.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{DepositManifest, SVC_CTX_DEPOSIT};
    use zc_cdr::ByteOrder;

    fn roundtrip(h: &RequestHeader, order: ByteOrder) -> RequestHeader {
        let mut enc = CdrEncoder::new(order);
        h.marshal(&mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        let back = RequestHeader::demarshal(&mut dec).unwrap();
        assert_eq!(dec.remaining(), 0);
        back
    }

    #[test]
    fn plain_roundtrip() {
        let h = RequestHeader::new(42, b"obj-key-1".to_vec(), "transfer");
        assert_eq!(roundtrip(&h, ByteOrder::Big), h);
        assert_eq!(roundtrip(&h, ByteOrder::Little), h);
    }

    #[test]
    fn oneway_flag_preserved() {
        let mut h = RequestHeader::new(7, b"k".to_vec(), "notify");
        h.response_expected = false;
        assert!(!roundtrip(&h, ByteOrder::Little).response_expected);
    }

    #[test]
    fn with_deposit_manifest() {
        let mut h = RequestHeader::new(1, b"key".to_vec(), "push");
        h.service_contexts.push(
            DepositManifest {
                block_lengths: vec![1 << 20],
            }
            .to_context(),
        );
        let back = roundtrip(&h, ByteOrder::Little);
        let m = DepositManifest::find_in(&back.service_contexts)
            .unwrap()
            .unwrap();
        assert_eq!(m.block_lengths, vec![1 << 20]);
        assert_eq!(back.service_contexts[0].id, SVC_CTX_DEPOSIT);
    }

    #[test]
    fn empty_object_key_and_operation_name() {
        let h = RequestHeader::new(0, vec![], "");
        assert_eq!(roundtrip(&h, ByteOrder::Big), h);
    }

    #[test]
    fn parameters_follow_header_in_same_stream() {
        let h = RequestHeader::new(3, b"ok".to_vec(), "op");
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        h.marshal(&mut enc).unwrap();
        enc.write_u32(0xFEED_F00D); // first parameter
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        let back = RequestHeader::demarshal(&mut dec).unwrap();
        assert_eq!(back, h);
        assert_eq!(dec.read_u32().unwrap(), 0xFEED_F00D);
    }
}
