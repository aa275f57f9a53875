pub const ZC_TAG: u32 = 0x5A43;
