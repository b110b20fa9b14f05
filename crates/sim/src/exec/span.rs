//! Full-mask lane-address pattern classification for the word-access
//! fast paths.
//!
//! Broadcast (every lane reads one uniform address — the
//! dispatch-block/argument idiom) and unit-stride (lane-consecutive words
//! — the streaming idiom) together cover the overwhelming majority of
//! full-mask SIMT word accesses; both collapse 32 per-lane page walks
//! into one bulk access. This classifier is the single copy of the
//! pattern detection that used to be duplicated across the
//! Load/Flw/Store/Fsw arms of `Core::execute`.

/// The detected shape of a full-mask lane-address row.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Span {
    /// Every lane addresses the same word (`addr0`, alignment **not yet**
    /// checked — the caller faults on a misaligned broadcast exactly like
    /// the general path, whose first checked lane is lane 0).
    Broadcast { addr0: u32 },
    /// Lane `l` addresses `addr0 + 4·l`; the whole span `addr0..=last` is
    /// word-aligned and does not wrap the address space.
    UnitStride { addr0: u32, last: u32 },
    /// Neither shape: serve lane by lane.
    Irregular,
}

/// Classifies the lane base-register row of a full-mask word access.
///
/// `base` must be exactly the warp's live lane rows (`threads` entries).
/// Single-lane warps are reported [`Irregular`](Span::Irregular): the
/// general path is already one access, and the broadcast/unit-stride
/// distinction is meaningless.
///
/// The check order mirrors the four former inline copies bit-for-bit:
/// broadcast is detected *before* any alignment test (a misaligned
/// broadcast faults rather than falling through), while unit-stride
/// requires alignment and no wrap-around as part of the pattern itself
/// (a misaligned stride falls back to the lane loop, which faults on
/// lane 0 with the identical error).
pub(crate) fn classify(base: &[u32], offset: i32) -> Span {
    let n = base.len();
    if n < 2 {
        return Span::Irregular;
    }
    let addr0 = base[0].wrapping_add(offset as u32);
    if base[1..].iter().all(|&b| b == base[0]) {
        return Span::Broadcast { addr0 };
    }
    if addr0 & 3 == 0
        && addr0.checked_add(4 * (n as u32 - 1)).is_some()
        && base[1..].iter().enumerate().all(|(i, &b)| b == base[0].wrapping_add(4 * (i as u32 + 1)))
    {
        return Span::UnitStride { addr0, last: addr0 + 4 * (n as u32 - 1) };
    }
    Span::Irregular
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_rows_are_detected_before_alignment() {
        assert_eq!(classify(&[0x1000; 8], 4), Span::Broadcast { addr0: 0x1004 });
        // Misaligned broadcast still classifies (the caller faults).
        assert_eq!(classify(&[0x1001; 4], 0), Span::Broadcast { addr0: 0x1001 });
    }

    #[test]
    fn unit_stride_requires_alignment_and_no_wrap() {
        assert_eq!(
            classify(&[0x2000, 0x2004, 0x2008, 0x200C], 8),
            Span::UnitStride { addr0: 0x2008, last: 0x2014 }
        );
        // Misaligned stride falls back to the lane loop.
        assert_eq!(classify(&[0x2001, 0x2005, 0x2009, 0x200D], 0), Span::Irregular);
        // Wrap-around at the top of the address space falls back.
        assert_eq!(
            classify(&[0xFFFF_FFF8, 0xFFFF_FFFC, 0x0000_0000, 0x0000_0004], 0),
            Span::Irregular
        );
    }

    #[test]
    fn irregular_patterns_and_single_lanes_fall_through() {
        assert_eq!(classify(&[0x3000, 0x3008, 0x3010, 0x3018], 0), Span::Irregular);
        assert_eq!(classify(&[0x3000], 0), Span::Irregular);
        assert_eq!(classify(&[0x3000, 0x3004, 0x3008, 0x300A], 0), Span::Irregular);
    }
}
