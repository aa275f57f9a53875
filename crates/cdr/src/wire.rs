//! Single source of truth for the zcorba wire-constant family.
//!
//! Every protocol literal derived from the ASCII "ZC" tag lives here (or is
//! derived from here): the GIOP service-context ids and exception minor
//! codes. The `wire-consts` audit
//! pass (`tools/zc-audit`) enforces that the `0x5A43` prefix is never
//! re-spelled as a literal outside this module, so encode and decode sides
//! cannot drift apart.

/// The 16-bit zcorba tag: ASCII `"ZC"` big-endian, the high half of every
/// vendor id.
pub const ZC_TAG: u32 = 0x5A43;

/// A 32-bit id in the zcorba vendor space: `ZC_TAG` in the high half, `n`
/// in the low half. Used for GIOP service-context ids and exception minor
/// codes, keeping us inside the OMG "vendor" id convention.
pub const fn zc_vendor_id(n: u16) -> u32 {
    (ZC_TAG << 16) | n as u32
}

/// Reserved object key of the in-band introspection object that every
/// object adapter auto-registers. The leading underscore keeps it outside
/// the user key namespace (mirroring GIOP's `_is_a`/`_non_existent`
/// reserved-operation convention), and the literal is pinned by a wire
/// test below so the key can never drift: operators' dashboards address
/// servers they did not build.
pub const ZC_TELEMETRY_KEY: &[u8] = b"_ZcTelemetry";

/// Repository id answered by the introspection object.
pub const ZC_TELEMETRY_REPO_ID: &str = "IDL:zcorba/ZcTelemetry:1.0";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_is_ascii_zc() {
        assert_eq!(ZC_TAG, u16::from_be_bytes(*b"ZC") as u32);
        assert_eq!(ZC_TAG, 0x5A43);
    }

    #[test]
    fn vendor_ids_concatenate_tag_and_index() {
        assert_eq!(zc_vendor_id(0x0001), 0x5A43_0001);
        assert_eq!(zc_vendor_id(0x0010), 0x5A43_0010);
        assert_eq!(zc_vendor_id(0xFFFF), 0x5A43_FFFF);
    }

    /// Cross-assert the introspection key against its literal bytes: the
    /// key is a wire constant (remote dashboards embed it in IORs), so a
    /// rename here must fail loudly instead of silently splitting the
    /// deployed fleet.
    #[test]
    fn telemetry_key_pinned_to_wire_bytes() {
        assert_eq!(
            ZC_TELEMETRY_KEY,
            &[0x5F, 0x5A, 0x63, 0x54, 0x65, 0x6C, 0x65, 0x6D, 0x65, 0x74, 0x72, 0x79]
        );
        assert_eq!(ZC_TELEMETRY_KEY, b"_ZcTelemetry");
        assert!(ZC_TELEMETRY_KEY.starts_with(b"_"), "reserved-name prefix");
        assert_eq!(ZC_TELEMETRY_REPO_ID, "IDL:zcorba/ZcTelemetry:1.0");
    }
}
