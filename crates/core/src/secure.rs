//! The secure message plane: deterministic per-building keys and an
//! amortized per-pair session-key cache.
//!
//! The paper's security story (§1 "Security", §3 step 4) rests on
//! *self-certifying names*: a building's identifier is the SHA-256 of
//! its public key, so authenticity never needs a certificate authority
//! mid-outage. This module supplies the run-time half of that story
//! for the simulation pipeline:
//!
//! * [`SecureState`] — one per experiment, installed by
//!   [`CityExperiment::enable_encryption`](crate::CityExperiment::enable_encryption):
//!   a deterministic registry of per-building
//!   [`Keypair`]s (drawn from a dedicated sub-stream of the experiment
//!   seed, so every worker and every rerun sees the same keys) plus a
//!   sharded cache of derived per-pair [`SessionKey`]s.
//! * Key rotation ([`SecureState::rotate_keys`]) — the churn analogue
//!   for key material: a building's keypair is regenerated (bumping
//!   its rotation epoch into the entropy derivation) and every cached
//!   session touching that building is evicted, exactly how the route
//!   cache treats a world event.
//!
//! The cache is the amortization argument made concrete: an X25519
//! exchange plus HKDF runs **once per src/dst pair**, after which every
//! message between the pair does only symmetric work. It is a
//! [`PairCache`] keyed by the unordered pair, mirroring the session
//! derivation's canonical ordering.

use std::sync::{Arc, OnceLock, RwLock};

use citymesh_crypto::{Keypair, NodeId, PeerTable, SessionKey};
use citymesh_simcore::{split_seed, substream_seed};

use crate::pair_cache::PairCache;

/// Sub-stream domain for per-building key entropy. Disjoint from the
/// simulation (`DOMAIN_SIM`-style) and message-id domains, so
/// enabling encryption never perturbs a delivery RNG stream.
pub const DOMAIN_KEYS: u64 = 0x5EC4;

/// Where a tampering adversary strikes, for fault-injection tests and
/// the auth-failure accounting path. The simulation itself never
/// corrupts a sealed message; this is the hook that proves the
/// receiver would notice if something did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TamperMode {
    /// Flip a bit in the HMAC-authenticated routing header.
    Header,
    /// Flip a bit in the AEAD ciphertext.
    Ciphertext,
}

/// Derives building `b`'s keypair at rotation epoch `rotation`.
///
/// Entropy is four words chained off
/// `substream_seed(seed, DOMAIN_KEYS, rotation ‖ b)` — a pure function
/// of `(seed, building, rotation)`, so the registry is identical
/// across workers, reruns, and rebuilds, and rotating a key is
/// deterministic too.
fn keypair_for(seed: u64, building: u32, rotation: u32) -> Keypair {
    let idx = (u64::from(rotation) << 32) | u64::from(building);
    let base = substream_seed(seed, DOMAIN_KEYS, idx);
    let mut entropy = [0u8; 32];
    for (i, chunk) in entropy.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&split_seed(base, i as u64).to_le_bytes());
    }
    Keypair::from_entropy(entropy)
}

/// Everything the encrypted flow mode needs, installed once per
/// experiment by
/// [`CityExperiment::enable_encryption`](crate::CityExperiment::enable_encryption)
/// and shared across clones behind an `Arc` — an engine's private
/// world (the churn engine mutates a clone) seals with the same
/// registry and warms the same cache as the caller's.
pub struct SecureState {
    seed: u64,
    /// Per-building keypair at its current rotation epoch, plus the
    /// epoch itself. One lock for both: rotation swaps the keypair and
    /// bumps the counter atomically with respect to readers.
    registry: RwLock<Registry>,
    /// Derived session keys, keyed by the unordered pair.
    cache: PairCache<SessionKey>,
}

struct Registry {
    keys: Vec<Keypair>,
    /// Each building's comb table ([`PeerTable`]), built by the first
    /// derivation against it — on the flow path, never at set-up — and
    /// dropped with its keypair on rotation.
    tables: Vec<OnceLock<PeerTable>>,
    rotations: Vec<u32>,
}

impl std::fmt::Debug for SecureState {
    /// Redacted: the registry holds secret scalars.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureState")
            .field("buildings", &self.buildings())
            .field("sessions", &self.sessions())
            .finish_non_exhaustive()
    }
}

impl SecureState {
    /// Builds the deterministic key registry for `buildings` buildings
    /// from a dedicated sub-stream of `seed`, with an empty session
    /// cache.
    pub fn new(seed: u64, buildings: usize) -> Self {
        let keys = (0..buildings as u32)
            .map(|b| keypair_for(seed, b, 0))
            .collect();
        SecureState {
            seed,
            registry: RwLock::new(Registry {
                keys,
                tables: (0..buildings).map(|_| OnceLock::new()).collect(),
                rotations: vec![0; buildings],
            }),
            cache: PairCache::new(),
        }
    }

    /// Buildings covered by the registry.
    pub fn buildings(&self) -> usize {
        self.registry.read().expect("registry poisoned").keys.len()
    }

    /// The building's self-certifying identifier:
    /// `NodeId = SHA-256(public key)` at the current rotation epoch.
    pub fn node_id(&self, building: u32) -> NodeId {
        self.registry.read().expect("registry poisoned").keys[building as usize].node_id()
    }

    /// The building's current public key.
    pub fn public_key(&self, building: u32) -> [u8; 32] {
        self.registry.read().expect("registry poisoned").keys[building as usize].public
    }

    /// A clone of the building's current keypair — test/postbox
    /// plumbing, not a hot-path call.
    pub fn keypair(&self, building: u32) -> Keypair {
        self.registry.read().expect("registry poisoned").keys[building as usize].clone()
    }

    /// The building's rotation epoch (0 until the first
    /// [`SecureState::rotate_keys`]).
    pub fn rotation(&self, building: u32) -> u32 {
        self.registry.read().expect("registry poisoned").rotations[building as usize]
    }

    /// The pair's session key from the cache, deriving (X25519 + HKDF)
    /// on first use. The X25519 runs on `b`'s comb table, built here if
    /// this is the first derivation against `b`; the key equals
    /// [`SessionKey::derive`]'s. The boolean reports whether this call
    /// derived — schedule-dependent (racing workers may double-derive),
    /// so it feeds digest-excluded telemetry only.
    pub fn session(&self, a: u32, b: u32) -> (Arc<SessionKey>, bool) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.cache.get_or_insert_with(key, || {
            let reg = self.registry.read().expect("registry poisoned");
            let theirs = reg.tables[b as usize].get_or_init(|| {
                PeerTable::new(&reg.keys[b as usize].public)
                    .expect("a registry public key is a curve point")
            });
            SessionKey::derive_with(&reg.keys[a as usize], theirs)
                .expect("registry keypairs are clamped; DH cannot hit a low-order point")
        })
    }

    /// Rotates `building`'s keypair — the key-material analogue of a
    /// churn event. The new keypair is drawn deterministically from the
    /// bumped rotation epoch, and every cached session touching the
    /// building is evicted (churn-style invalidation: peers must
    /// re-derive against the new key). Returns the sessions evicted.
    pub fn rotate_keys(&self, building: u32) -> usize {
        {
            let mut reg = self.registry.write().expect("registry poisoned");
            let rot = reg.rotations[building as usize] + 1;
            reg.rotations[building as usize] = rot;
            reg.keys[building as usize] = keypair_for(self.seed, building, rot);
            reg.tables[building as usize] = OnceLock::new();
        }
        self.cache
            .retain(|&(a, b), _| a != building && b != building) as usize
    }

    /// Drops every cached session (the bench's cold-start reset).
    /// Keypairs and their comb tables — keypair state, not session
    /// state — are untouched.
    pub fn clear_sessions(&self) {
        self.cache.clear();
    }

    /// Cached sessions currently held.
    pub fn sessions(&self) -> usize {
        self.cache.len()
    }

    /// Cache misses (= derivations attempted) so far.
    /// Schedule-dependent; never digest material.
    pub fn session_misses(&self) -> u64 {
        self.cache.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_deterministic() {
        let a = SecureState::new(7, 20);
        let b = SecureState::new(7, 20);
        for building in 0..20 {
            assert_eq!(a.node_id(building), b.node_id(building));
            assert_eq!(a.public_key(building), b.public_key(building));
        }
        let c = SecureState::new(8, 20);
        assert_ne!(a.public_key(0), c.public_key(0), "seed must reach keys");
    }

    #[test]
    fn node_id_certifies_the_public_key() {
        let s = SecureState::new(3, 4);
        let id = s.node_id(2);
        assert!(id.certifies(&s.public_key(2)));
        assert!(!id.certifies(&s.public_key(3)));
    }

    #[test]
    fn session_cache_amortizes_derivation() {
        let s = SecureState::new(11, 10);
        let (k1, derived1) = s.session(1, 2);
        assert!(derived1, "first request derives");
        let (k2, derived2) = s.session(2, 1);
        assert!(!derived2, "reverse direction hits the same entry");
        assert!(Arc::ptr_eq(&k1, &k2));
        assert_eq!(s.sessions(), 1);
        assert_eq!(s.session_misses(), 1);
    }

    #[test]
    fn sessions_agree_between_endpoints() {
        // The canonical derivation means either endpoint opening with
        // the cached key sees the other's sealed bytes.
        let s = SecureState::new(5, 6);
        let (k, _) = s.session(0, 4);
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        k.seal_into(99, b"hdr", b"between 0 and 4", &mut sealed);
        k.open_into(99, b"hdr", &sealed, &mut opened).unwrap();
        assert_eq!(opened, b"between 0 and 4");
    }

    #[test]
    fn rotation_evicts_only_touching_sessions() {
        let s = SecureState::new(13, 8);
        s.session(0, 1);
        s.session(0, 2);
        s.session(3, 4);
        assert_eq!(s.sessions(), 3);
        let before = s.public_key(0);
        let evicted = s.rotate_keys(0);
        assert_eq!(evicted, 2, "both sessions touching building 0");
        assert_eq!(s.sessions(), 1, "the 3↔4 session survives");
        assert_eq!(s.rotation(0), 1);
        assert_ne!(s.public_key(0), before, "rotation regenerates the key");
        // Re-deriving after rotation yields a *different* session key.
        let (old_k, _) = s.session(3, 4);
        let (new_k, derived) = s.session(0, 1);
        assert!(derived, "evicted pair re-derives");
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        new_k.seal_into(1, b"", b"post-rotation", &mut sealed);
        assert!(old_k.open_into(1, b"", &sealed, &mut opened).is_err());
    }

    #[test]
    fn rotation_rebuilds_the_rotated_building_s_table_only() {
        // Derivations against 2 build its table; after 2 rotates, the
        // pair re-derives on the new key's table, not the old one's,
        // and equals the ladder's key on the new keypair.
        let s = SecureState::new(29, 6);
        let (before, _) = s.session(0, 2);
        let (kept, _) = s.session(1, 3);
        s.rotate_keys(2);
        let (after, derived) = s.session(0, 2);
        assert!(derived);
        assert!(*after == SessionKey::derive(&s.keypair(0), &s.public_key(2)).unwrap());
        assert!(*after != *before);
        let (still, derived) = s.session(1, 3);
        assert!(!derived && Arc::ptr_eq(&kept, &still), "1↔3 untouched");
        s.clear_sessions();
        let (again, _) = s.session(1, 3);
        assert!(*again == *kept, "a kept table derives the same key");
    }

    #[test]
    fn rotation_is_deterministic() {
        let a = SecureState::new(21, 5);
        let b = SecureState::new(21, 5);
        a.rotate_keys(3);
        b.rotate_keys(3);
        assert_eq!(a.public_key(3), b.public_key(3));
    }

    #[test]
    fn clear_sessions_keeps_keys() {
        let s = SecureState::new(17, 4);
        let pk = s.public_key(1);
        s.session(1, 2);
        s.clear_sessions();
        assert_eq!(s.sessions(), 0);
        assert_eq!(s.public_key(1), pk);
    }

    #[test]
    fn debug_is_redacted() {
        let s = SecureState::new(1, 2);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("SecureState"));
        assert!(!dbg.contains("keys"), "no key material in Debug: {dbg}");
    }

    #[test]
    fn registry_keys_drive_the_postbox_flow() {
        // Paper §3 step 4 end-to-end with registry identities: a sender
        // seals to the recipient building's registry public key, the
        // postbox caches the opaque `SealedMessage`, and the recipient
        // opens with its registry keypair on check-in. A tampered copy
        // is reported as an auth failure and stays stored — the postbox
        // never acknowledges what the owner could not read.
        use crate::postbox::Postbox;
        use citymesh_crypto::{PostboxAddress, SealedMessage};
        use citymesh_simcore::SimTime;

        let state = SecureState::new(51, 8);
        let recipient = 3u32;
        let addr = PostboxAddress {
            public_key: state.public_key(recipient),
            building_id: recipient,
        };
        let owner = state.keypair(recipient);

        let mut pb = Postbox::with_defaults();
        pb.register(owner.node_id());

        let aad_for = |msg_id: u64| msg_id.to_le_bytes().to_vec();
        let good = SealedMessage::seal(&addr, [0x11; 32], &aad_for(1), b"meet at the library")
            .expect("registry keys are never degenerate");
        let mut bad = SealedMessage::seal(&addr, [0x22; 32], &aad_for(2), b"ignore this")
            .expect("registry keys are never degenerate");
        bad.ciphertext[0] ^= 0x01;

        let now = SimTime::from_secs_f64(0.0);
        pb.deposit(owner.node_id(), 1, good, now).unwrap();
        pb.deposit(owner.node_id(), 2, bad, now).unwrap();

        let (opened, failed) = pb
            .retrieve_and_open(&owner, recipient, aad_for)
            .expect("owner is registered");
        assert_eq!(opened.len(), 1);
        assert_eq!(opened[0], (1, b"meet at the library".to_vec()));
        assert_eq!(failed, vec![2], "tampering is an explicit outcome");
        assert_eq!(
            pb.total_messages(),
            1,
            "the unopened message must stay stored; only opened mail is acked"
        );
    }
}
