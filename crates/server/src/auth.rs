//! Encrypted user ids.
//!
//! "The Communix server requires each user to accompany the signatures
//! he/she sends with an encrypted user id that the server provides. …
//! The server uses AES encryption, with a predefined 128-bit key, to
//! produce the encrypted user ids." (§III-C2)
//!
//! The paper explicitly does not implement the id-*issuance* service
//! ("such a service exceeds the scope of this work"); [`IdAuthority`]
//! stands in for it so the system is runnable end-to-end, with the same
//! trust model: only the holder of the predefined key can mint ids.
//!
//! Over the wire (`ISSUE_ID`) the server mints each id for a fresh
//! random number ([`IdAuthority::issue_new`]), so no connection obtains
//! another sender's id. The cost: a node that asks again after a restart
//! is a new sender with a fresh daily budget, no worse than a server
//! restart, which refunds every budget (ROADMAP item 4).

use std::hash::{BuildHasher, RandomState};

use communix_crypto::Aes128;
use communix_net::EncryptedId;

/// Magic prefix inside every valid id block, so forged random blocks
/// decrypt to garbage that fails validation.
const MAGIC: &[u8; 8] = b"COMMUNIX";

/// Mints and verifies encrypted user ids with the server's predefined
/// AES-128 key.
#[derive(Clone)]
pub struct IdAuthority {
    cipher: Aes128,
}

impl std::fmt::Debug for IdAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdAuthority").finish_non_exhaustive()
    }
}

impl IdAuthority {
    /// Creates an authority from the predefined 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        IdAuthority {
            cipher: Aes128::new(key),
        }
    }

    /// The default key used across this reproduction's deployments.
    pub fn default_key() -> [u8; 16] {
        *b"communix-aes-128"
    }

    /// Mints the encrypted id for plain user number `user`.
    pub fn issue(&self, user: u64) -> EncryptedId {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(MAGIC);
        block[8..].copy_from_slice(&user.to_be_bytes());
        self.cipher.encrypt_block(&block)
    }

    /// Mints the id of a random user number no caller picks: 64 bits
    /// from std's `RandomState`, whose keys move on with every state.
    pub fn issue_new(&self) -> EncryptedId {
        self.issue(RandomState::new().hash_one(()))
    }

    /// Decrypts and validates an encrypted id, returning the plain user
    /// number, or `None` for forged/corrupt blocks.
    pub fn verify(&self, id: &EncryptedId) -> Option<u64> {
        let block = self.cipher.decrypt_block(id);
        if &block[..8] != MAGIC {
            return None;
        }
        Some(u64::from_be_bytes(block[8..].try_into().expect("8 bytes")))
    }
}

impl Default for IdAuthority {
    fn default() -> Self {
        IdAuthority::new(&IdAuthority::default_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_verify_roundtrip() {
        let auth = IdAuthority::default();
        for user in [0u64, 1, 42, u64::MAX] {
            let id = auth.issue(user);
            assert_eq!(auth.verify(&id), Some(user));
        }
    }

    #[test]
    fn forged_ids_rejected() {
        let auth = IdAuthority::default();
        assert_eq!(auth.verify(&[0u8; 16]), None);
        assert_eq!(auth.verify(&[0xAB; 16]), None);
        // Bit-flip a valid id: magic check fails with overwhelming
        // probability.
        let mut id = auth.issue(7);
        id[0] ^= 0x01;
        assert_eq!(auth.verify(&id), None);
    }

    #[test]
    fn ids_are_user_specific() {
        let auth = IdAuthority::default();
        assert_ne!(auth.issue(1), auth.issue(2));
    }

    #[test]
    fn wrong_key_cannot_verify() {
        let a = IdAuthority::new(b"key-aaaaaaaaaaaa");
        let b = IdAuthority::new(b"key-bbbbbbbbbbbb");
        let id = a.issue(9);
        assert_eq!(b.verify(&id), None);
    }

    #[test]
    fn ids_are_deterministic() {
        // "It must be hard for an attacker to obtain multiple ids" — the
        // same user always maps to the same id, so handing out ids is
        // idempotent.
        let auth = IdAuthority::default();
        assert_eq!(auth.issue(5), auth.issue(5));
    }

    #[test]
    fn debug_does_not_leak() {
        let s = format!("{:?}", IdAuthority::default());
        assert!(!s.contains("communix-aes-128"));
    }
}
