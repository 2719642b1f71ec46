//! Residency-bitmap edge cases: zero-length allocations, page-boundary
//! addressing, and the degenerate device budgets.

use uvm_sim::{ManagedRegion, Touch, UvmError, EVICT_COST, FAULT_COST, PAGE_BYTES, PREFAULT_COST};

/// A touch the test knows is inside the region.
fn touch(r: &mut ManagedRegion, offset: u64) -> Touch {
    r.try_touch(offset).expect("offset inside the region")
}

#[test]
fn zero_length_region_is_inert() {
    let mut r = ManagedRegion::new(0, 1 << 30);
    assert_eq!(r.len_bytes(), 0);
    assert_eq!(r.resident_pages(), 0);
    // Prefaulting nothing costs nothing and makes nothing resident.
    assert_eq!(r.prefault(u64::MAX), 0);
    assert_eq!(r.resident_pages(), 0);
    assert_eq!(r.stats(), uvm_sim::UvmStats::default());
}

#[test]
fn touching_a_zero_length_region_is_refused() {
    let mut r = ManagedRegion::new(0, 1 << 30);
    let refused = UvmError::OutOfRange {
        offset: 0,
        len_bytes: 0,
    };
    assert_eq!(r.try_touch(0), Err(refused));
    assert_eq!(r.stats(), uvm_sim::UvmStats::default());
}

#[test]
fn page_boundary_addresses_resolve_to_the_right_page() {
    let page = PAGE_BYTES;
    // Two full pages plus one byte: three pages total.
    let mut r = ManagedRegion::new(2 * page + 1, 1 << 30);

    // Last byte of page 0 and first byte of page 1 are different pages.
    assert!(matches!(touch(&mut r, page - 1), Touch::Fault { .. }));
    assert_eq!(r.resident_pages(), 1);
    assert!(matches!(touch(&mut r, page), Touch::Fault { .. }));
    assert_eq!(r.resident_pages(), 2);
    // Same pages again: hits, no new residency.
    assert_eq!(touch(&mut r, page - 1), Touch::Hit);
    assert_eq!(touch(&mut r, page), Touch::Hit);
    assert_eq!(r.resident_pages(), 2);

    // The final one-byte tail page is addressable...
    assert!(matches!(touch(&mut r, 2 * page), Touch::Fault { .. }));
    assert_eq!(r.resident_pages(), 3);
    assert_eq!(r.stats().faults, 3);
}

#[test]
fn first_byte_past_the_region_is_refused() {
    let page = PAGE_BYTES;
    let mut r = ManagedRegion::new(2 * page + 1, 1 << 30);
    let refused = UvmError::OutOfRange {
        offset: 2 * page + 1,
        len_bytes: 2 * page + 1,
    };
    assert_eq!(r.try_touch(2 * page + 1), Err(refused));
    assert_eq!(r.resident_pages(), 0);
}

#[test]
fn prefault_is_capped_by_request_region_and_budget() {
    let page = PAGE_BYTES;
    let mut r = ManagedRegion::new(10 * page, 1 << 30);
    // Request covers 2.5 pages → rounds up to 3.
    let cycles = r.prefault(2 * page + page / 2);
    assert_eq!(r.resident_pages(), 3);
    assert_eq!(cycles, 3 * PREFAULT_COST);
    // Re-prefaulting the same prefix is free (already resident).
    assert_eq!(r.prefault(3 * page), 0);

    // A tiny budget caps the resident set regardless of the request.
    let mut tight = ManagedRegion::new(10 * page, 2 * page);
    let _ = tight.prefault(u64::MAX);
    assert_eq!(tight.resident_pages(), 2);
    assert_eq!(tight.stats().prefaulted_pages, 2);
}

#[test]
fn zero_budget_region_faults_remotely_forever() {
    let page = PAGE_BYTES;
    let mut r = ManagedRegion::new(4 * page, 0);
    // Every touch pays fault + evict and residency never grows.
    for _ in 0..3 {
        let t = touch(&mut r, 0);
        assert_eq!(
            t,
            Touch::Fault {
                cycles: FAULT_COST + EVICT_COST
            }
        );
    }
    assert_eq!(r.resident_pages(), 0);
    let s = r.stats();
    assert_eq!(s.faults, 3);
    assert_eq!(s.evictions, 3);
    assert_eq!(s.fault_cycles, 3 * (FAULT_COST + EVICT_COST));
    // And prefaulting with no budget is a no-op.
    assert_eq!(r.prefault(u64::MAX), 0);
    assert_eq!(r.resident_pages(), 0);
}

#[test]
fn fifo_eviction_cycles_through_pages_at_the_budget_edge() {
    let page = PAGE_BYTES;
    let mut r = ManagedRegion::new(4 * page, 2 * page);
    assert!(matches!(touch(&mut r, 0), Touch::Fault { .. }));
    assert!(matches!(touch(&mut r, page), Touch::Fault { .. }));
    assert_eq!(r.resident_pages(), 2);
    // Page 2 evicts page 0 (FIFO head): re-touching 0 faults again.
    let t = touch(&mut r, 2 * page);
    assert_eq!(
        t,
        Touch::Fault {
            cycles: FAULT_COST + EVICT_COST
        }
    );
    assert_eq!(r.resident_pages(), 2);
    assert!(matches!(touch(&mut r, 0), Touch::Fault { .. }));
    assert_eq!(r.stats().evictions, 2);
}
