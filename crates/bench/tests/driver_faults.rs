//! Fault isolation in `par_map`: a panicking call must come back as an
//! isolated `Err` (a DNF row) at its own index while the rest of the
//! items complete and keep their submission-order results.

use std::time::Duration;

use bench::par_map;

#[test]
fn panicking_job_is_isolated_and_reported() {
    let out = par_map(vec![10u32, 42, 20], |x| {
        if x == 42 {
            panic!("boom {}", 6 * 7);
        }
        x
    });
    assert_eq!(out.len(), 3);
    assert_eq!(out[0], Ok(10));
    assert_eq!(out[2], Ok(20));
    match &out[1] {
        Err(message) => assert!(message.contains("boom 42"), "got {message:?}"),
        other => panic!("expected Err, got {other:?}"),
    }
}

#[test]
fn panicking_first_job_does_not_stop_the_rest() {
    let out = par_map(vec![0u32, 7], |x| {
        assert!(x != 0, "first job dies");
        x
    });
    assert!(matches!(&out[0], Err(m) if m.contains("first job dies")));
    assert_eq!(out[1], Ok(7));
}

#[test]
fn outcomes_preserve_submission_order_under_contention() {
    // Many quick items racing over few workers: values must come back in
    // submission order regardless of completion order.
    let out = par_map((0..64).collect(), |i: usize| {
        if i.is_multiple_of(7) {
            std::thread::sleep(Duration::from_millis(2));
        }
        i
    });
    let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
    assert_eq!(values, (0..64).collect::<Vec<_>>());
}
