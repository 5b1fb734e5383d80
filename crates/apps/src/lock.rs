//! Exclusive locks on top of the NetChain CAS primitive (§8.5).
//!
//! A lock is a key whose 8-byte value holds the current owner's client id,
//! with 0 meaning "free". Acquiring is `CAS(expected = 0, new = client_id)`;
//! releasing is `CAS(expected = client_id, new = 0)`, so a lock can only be
//! released by the client that owns it — exactly the semantics the paper
//! implements with the Tofino CAS primitive. [`crate::TxnClient`] issues
//! both.

use netchain_core::KvOp;
use netchain_wire::Key;

/// The key used for lock number `lock_id` in namespace `namespace`.
///
/// Namespacing keeps the hot/cold lock sets of different experiments from
/// colliding with ordinary configuration keys.
pub fn lock_key(namespace: u32, lock_id: u64) -> Key {
    let mut bytes = [0u8; 16];
    bytes[0..4].copy_from_slice(b"lck:");
    bytes[4..8].copy_from_slice(&namespace.to_be_bytes());
    bytes[8..16].copy_from_slice(&lock_id.to_be_bytes());
    Key::from_bytes(bytes)
}

/// The CAS that acquires `key` for `holder`: free (0) to `holder`.
///
/// # Panics
/// Panics if `holder` is zero (zero encodes "free").
pub fn acquire(key: Key, holder: u64) -> KvOp {
    assert!(holder != 0, "client id 0 is reserved for the free state");
    KvOp::Cas {
        key,
        expected: 0,
        new: holder,
    }
}

/// The CAS that releases `key`; it only succeeds if `holder` holds it.
pub fn release(key: Key, holder: u64) -> KvOp {
    KvOp::Cas {
        key,
        expected: holder,
        new: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_keys_are_distinct_per_namespace_and_id() {
        assert_ne!(lock_key(0, 1), lock_key(0, 2));
        assert_ne!(lock_key(0, 1), lock_key(1, 1));
        assert_eq!(lock_key(3, 9), lock_key(3, 9));
    }

    #[test]
    fn acquire_and_release_build_the_right_cas() {
        let key = lock_key(0, 5);
        match acquire(key, 42) {
            KvOp::Cas {
                expected,
                new,
                key: k,
            } => {
                assert_eq!((expected, new), (0, 42));
                assert_eq!(k, key);
            }
            other => panic!("unexpected op {other:?}"),
        }
        match release(key, 42) {
            KvOp::Cas { expected, new, .. } => assert_eq!((expected, new), (42, 0)),
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_client_id_rejected() {
        acquire(lock_key(0, 1), 0);
    }
}
