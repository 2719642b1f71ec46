//! Property-based tests of the oracle's v2 spec grammar: every generated spec
//! round-trips through its compact string exactly, and every malformed
//! string is rejected with a *typed* error — there is no panicking parse
//! path anywhere in the grammar.

use iguard_repro::oracle::spec::{Spec, SpecError, MAX_ACTORS, MIN_ACTORS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse → print is the identity on generated specs, and the
    /// parsed spec is structurally equal to the generated one.
    #[test]
    fn random_spec_roundtrips(seed in any::<u64>()) {
        let spec = Spec::random_litmus(&mut SmallRng::seed_from_u64(seed));
        spec.validate().expect("generated spec must validate");
        prop_assert!(spec.actors.len() >= MIN_ACTORS && spec.actors.len() <= MAX_ACTORS);
        let s = spec.to_compact_string();
        let back = Spec::parse(&s).expect("generated spec must reparse");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_compact_string(), s);
    }

    /// Arbitrary byte soup never panics the parser: it either yields a
    /// valid spec (which must then round-trip) or a typed error. Strings
    /// are drawn from the grammar's own alphabet plus noise so that the
    /// parser's deeper stages actually get exercised.
    #[test]
    fn arbitrary_strings_never_panic(seed in any::<u64>(), len in 0usize..60) {
        use rand::RngExt;
        let mut rng = SmallRng::seed_from_u64(seed);
        const ALPHABET: &[u8] = b"v2;CBSWxyzuLSaefDdBbtw./?:r=&0123456789 Q\xc3\xa9";
        let s: String = (0..len)
            .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
            .collect();
        // A typed rejection is the expected outcome; an accepted spec
        // must validate and round-trip.
        if let Ok(spec) = Spec::parse(&s) {
            spec.validate().expect("accepted spec must validate");
            let reprinted = spec.to_compact_string();
            let again = Spec::parse(&reprinted).expect("reprint must reparse");
            prop_assert_eq!(again, spec);
        }
    }

    /// Near-miss mutations of a valid spec (one byte flipped) never panic
    /// and still round-trip when accepted.
    #[test]
    fn single_byte_mutations_never_panic(seed in any::<u64>(), pos in 0usize..64, byte in 0u8..=255) {
        let spec = Spec::random_litmus(&mut SmallRng::seed_from_u64(seed));
        let mut bytes = spec.to_compact_string().into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            if let Ok(parsed) = Spec::parse(&mutated) {
                parsed.validate().expect("accepted mutant must validate");
                let reprinted = parsed.to_compact_string();
                prop_assert_eq!(Spec::parse(&reprinted).unwrap(), parsed);
            }
        }
    }
}

/// Each malformed-input class maps to its specific typed error variant,
/// not a catch-all and not a panic.
#[test]
fn malformed_inputs_yield_typed_errors() {
    type ErrMatcher = fn(&SpecError) -> bool;
    let cases: &[(&str, ErrMatcher)] = &[
        // Wrong or missing version tag.
        ("v1;CB;Sx/Lx", |e| matches!(e, SpecError::Version { .. })),
        ("", |e| matches!(e, SpecError::Version { .. })),
        ("v2", |e| matches!(e, SpecError::Version { .. })),
        ("v2;CB", |e| matches!(e, SpecError::Header { .. })),
        // Unknown placement.
        ("v2;XX;Sx/Lx", |e| matches!(e, SpecError::Placement { .. })),
        // Actor-count violations (1 actor; 5 actors).
        ("v2;CB;Sx", |e| matches!(e, SpecError::ActorCount { .. })),
        ("v2;CB;Sx/Sx/Sx/Sx/Sx", |e| {
            matches!(e, SpecError::ActorCount { .. })
        }),
        // Empty actor body.
        ("v2;CB;Sx/", |e| matches!(e, SpecError::EmptyActor { .. })),
        ("v2;CB;/Lx", |e| matches!(e, SpecError::EmptyActor { .. })),
        // Unknown op / location.
        ("v2;CB;Qx/Lx", |e| matches!(e, SpecError::UnknownOp { .. })),
        ("v2;CB;Sq/Lx", |e| {
            matches!(
                e,
                SpecError::UnknownOp { .. } | SpecError::UnknownLocation { .. }
            )
        }),
        // Barriers are meaningless across blocks.
        ("v2;CB;Sx.t/Lx", |e| {
            matches!(e, SpecError::BarrierUnderCrossBlock { .. })
        }),
        // Assertion syntax and reference errors.
        ("v2;CB;Sx/Lx;1:r0=0", |e| {
            matches!(e, SpecError::Assertion { .. })
        }),
        ("v2;CB;Sx/Lx;?", |e| {
            matches!(e, SpecError::Assertion { .. })
        }),
        ("v2;CB;Sx/Lx;?bogus", |e| {
            matches!(e, SpecError::Assertion { .. })
        }),
        ("v2;CB;Sx/Lx;?7:r0=0", |e| {
            matches!(
                e,
                SpecError::ActorRef {
                    actor: 7,
                    actors: 2
                }
            )
        }),
        ("v2;CB;Sx/Lx;?1:r3=0", |e| {
            matches!(
                e,
                SpecError::LoadRef {
                    actor: 1,
                    load: 3,
                    loads: 1
                }
            )
        }),
        ("v2;CB;Sx/Lx;?[q]=0", |e| {
            matches!(e, SpecError::Assertion { .. })
        }),
    ];
    for (input, matches_variant) in cases {
        let err = Spec::parse(input).expect_err(input);
        assert!(
            matches_variant(&err),
            "{input:?} produced unexpected error: {err} ({err:?})"
        );
        // The Display impl must be non-empty and not a Debug dump.
        assert!(!err.to_string().is_empty());
    }
}
