//! Whole-network orchestration: the in-memory harness that ties the
//! map, routing, event simulation, crypto, and postboxes into one
//! Alice-to-Bob story (paper §3's four-step workflow).
//!
//! Every mesh traversal here is one call into
//! [`CityExperiment::run_pair`] — the same plan → compress → simulate
//! pipeline the fleet, stream and churn engines drive — so whatever the
//! experiment's config turns on (a fault scenario and its retry
//! ladder, reception loss) applies to the facade's sends too.

use std::collections::HashMap;

use citymesh_core::{CityExperiment, ConfigError, ExperimentConfig, Postbox};
use citymesh_crypto::{Keypair, NodeId, PostboxAddress, SealedMessage};
use citymesh_map::CityMap;
use citymesh_simcore::{split_seed, SimRng, SimTime};

/// Message-id domain of sealed deposits (sender → postbox).
const DOMAIN_DEPOSIT: u64 = 0x4D59;
/// Message-id domain of push notifications (postbox → device).
const DOMAIN_PUSH: u64 = 0x9054;

/// A registered CityMesh user: their keypair plus where their postbox
/// lives.
#[derive(Clone, Debug)]
pub struct User {
    keypair: Keypair,
    postbox_building: u32,
}

impl User {
    /// The out-of-band address the user shares (paper §3 step 1:
    /// "his unique public key and the building ID of the building
    /// that contains the desired postbox AP"; fits in a QR code).
    pub fn address(&self) -> PostboxAddress {
        PostboxAddress {
            public_key: self.keypair.public,
            building_id: self.postbox_building,
        }
    }

    /// The user's self-certifying ID.
    pub fn node_id(&self) -> NodeId {
        self.keypair.node_id()
    }

    /// The user's keypair (needed to open sealed messages).
    pub fn keypair(&self) -> &Keypair {
        &self.keypair
    }
}

/// The result of one send through the mesh.
#[derive(Clone, Debug)]
pub struct SendReceipt {
    /// Message ID carried in the header.
    pub msg_id: u64,
    /// Whether a building route could even be planned.
    pub route_found: bool,
    /// Whether the packet reached the destination building and was
    /// deposited in the postbox.
    pub delivered: bool,
    /// Delivery attempts simulated: 1 in a fault-free network, up to
    /// the scenario's [`citymesh_core::RetryPolicy::max_attempts`]
    /// under a fault scenario (re-send → widen → replan), 0 when the
    /// message never reached the simulator (no route, or the source
    /// building has no live AP).
    pub attempts: u32,
    /// Broadcast count in the event simulation.
    pub broadcasts: u64,
    /// Simulated delivery latency.
    pub latency: Option<SimTime>,
    /// Compressed source-route size, bits.
    pub route_bits: usize,
    /// Waypoints after compression.
    pub waypoints: usize,
}

/// An in-memory CityMesh deployment over one city.
///
/// Owns the prepared [`CityExperiment`] (AP placement, both graphs,
/// the materialized fault state when `config.faults` is set), one
/// [`Postbox`] per building that hosts one, and a simulation clock
/// that advances with each message sent.
#[derive(Clone, Debug)]
pub struct DfnNetwork {
    exp: CityExperiment,
    postboxes: HashMap<u32, Postbox>,
    rng: SimRng,
    clock: SimTime,
    next_msg_id: u64,
}

impl DfnNetwork {
    /// Builds the deployment: places APs and constructs both graphs.
    ///
    /// # Errors
    /// An invalid `config` ([`ExperimentConfig::validate`]).
    pub fn new(map: CityMap, config: ExperimentConfig, seed: u64) -> Result<Self, ConfigError> {
        let config = ExperimentConfig { seed, ..config };
        Ok(DfnNetwork {
            exp: CityExperiment::try_prepare(map, config)?,
            postboxes: HashMap::new(),
            rng: SimRng::new(split_seed(seed, 0xD4A)),
            clock: SimTime::ZERO,
            next_msg_id: 1,
        })
    }

    /// The prepared experiment (map, AP graph, building graph).
    pub fn experiment(&self) -> &CityExperiment {
        &self.exp
    }

    /// Current simulated wall clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Registers a user with a postbox in `building`. `entropy` seeds
    /// the keypair; simulations pass deterministic bytes, deployments
    /// pass OS randomness. `None` when `building` does not exist in
    /// the map.
    pub fn register_user(&mut self, entropy: [u8; 32], building: u32) -> Option<User> {
        self.exp.map().building(building)?;
        let user = User {
            keypair: Keypair::from_entropy(entropy),
            postbox_building: building,
        };
        self.postboxes
            .entry(building)
            .or_insert_with(Postbox::with_defaults)
            .register(user.node_id());
        Some(user)
    }

    /// AAD binding a sealed message to its packet identity: message ID
    /// plus destination building, so a captured ciphertext cannot be
    /// replayed under another identity.
    fn aad(msg_id: u64, dst_building: u32) -> Vec<u8> {
        let mut aad = Vec::with_capacity(12);
        aad.extend_from_slice(&msg_id.to_le_bytes());
        aad.extend_from_slice(&dst_building.to_le_bytes());
        aad
    }

    /// One mesh traversal `from → to` (paper §3 steps 2–3): draws the
    /// next message id in `domain` and runs the experiment's pipeline.
    /// This is the facade's only road into the mesh.
    fn traverse(&mut self, from: u32, to: u32, domain: u64) -> SendReceipt {
        let msg_id = split_seed(self.exp.config().seed, domain ^ self.next_msg_id);
        self.next_msg_id += 1;
        let out = self.exp.run_pair(from, to, msg_id, &mut self.rng);
        SendReceipt {
            msg_id,
            route_found: out.route_found,
            delivered: out.delivered,
            attempts: out.attempts,
            broadcasts: out.broadcasts,
            latency: out.latency,
            route_bits: out.route_bits,
            waypoints: out.waypoints,
        }
    }

    /// Sends `body` from a device in `from_building` to the postbox in
    /// `to`. Runs the full pipeline: route → compress →
    /// event-simulate → seal → deposit. An unknown building on either
    /// end is a receipt with `route_found == false`.
    pub fn send_text(
        &mut self,
        from_building: u32,
        to: &PostboxAddress,
        body: &[u8],
    ) -> SendReceipt {
        let mut receipt = self.traverse(from_building, to.building_id, DOMAIN_DEPOSIT);
        if receipt.delivered {
            // Step 4: seal to the recipient's published key (the
            // postbox stores ciphertext it cannot read) and deposit.
            let mut entropy = [0u8; 32];
            self.rng.fill_bytes(&mut entropy);
            let aad = Self::aad(receipt.msg_id, to.building_id);
            let arrived = self.clock + receipt.latency.unwrap_or(SimTime::ZERO);
            receipt.delivered = SealedMessage::seal(to, entropy, &aad, body)
                .zip(self.postboxes.get_mut(&to.building_id))
                .is_some_and(|(sealed, pb)| {
                    pb.deposit(to.node_id(), receipt.msg_id, sealed, arrived)
                        .is_ok()
                });
        }
        // Advance the network clock past this exchange.
        self.clock += SimTime::from_secs_f64(1.0);
        receipt
    }

    /// A user's device checks in at its postbox from `current_building`
    /// and opens everything pending. Returns `(msg_id, plaintext)`
    /// pairs; messages that fail authentication stay in the postbox.
    pub fn check_mailbox(&mut self, user: &User, current_building: u32) -> Vec<(u64, Vec<u8>)> {
        let Some(pb) = self.postboxes.get_mut(&user.postbox_building) else {
            return Vec::new();
        };
        let dst = user.postbox_building;
        match pb.retrieve_and_open(user.keypair(), current_building, |msg_id| {
            Self::aad(msg_id, dst)
        }) {
            Ok((opened, _failed)) => opened,
            Err(_) => Vec::new(),
        }
    }

    /// Where a push notification for `user` would be routed (their
    /// last check-in building), if pushes are enabled.
    pub fn push_target(&self, user: &User) -> Option<u32> {
        self.postboxes
            .get(&user.postbox_building)?
            .push_target(&user.node_id())
    }

    /// Sends an *urgent* message: deliver to the postbox as usual,
    /// then — if the recipient has pushes enabled — immediately
    /// forward a push notification from the postbox toward their last
    /// known building (paper §3 step 4: the postbox "may also
    /// implement push notifications for the immediate forwarding of
    /// urgent messages").
    ///
    /// Returns the deposit receipt plus, when a push was attempted,
    /// the push's own receipt (a second mesh traversal, postbox →
    /// last-known building).
    pub fn send_urgent(
        &mut self,
        from_building: u32,
        to: &PostboxAddress,
        body: &[u8],
    ) -> (SendReceipt, Option<SendReceipt>) {
        let deposit = self.send_text(from_building, to, body);
        if !deposit.delivered {
            return (deposit, None);
        }
        let Some(target_building) = self
            .postboxes
            .get(&to.building_id)
            .and_then(|pb| pb.push_target(&to.node_id()))
        else {
            return (deposit, None);
        };
        if target_building == to.building_id {
            // The device last checked in at the postbox itself; the
            // deposit already reached it.
            return (deposit, None);
        }

        // The push travels postbox → device as its own CityMesh
        // traversal on its own id domain. Its payload is only the
        // message ID (the device fetches the sealed body on its next
        // check-in).
        let push = self.traverse(to.building_id, target_building, DOMAIN_PUSH);
        (deposit, Some(push))
    }

    /// Messages currently stored across all postboxes.
    pub fn stored_messages(&self) -> usize {
        self.postboxes.values().map(Postbox::total_messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citymesh_core::{FaultScenario, RetryPolicy};
    use citymesh_map::CityArchetype;

    fn downtown_with(config: ExperimentConfig) -> DfnNetwork {
        let map = CityArchetype::SurveyDowntown.generate(42);
        DfnNetwork::new(map, config, 42).expect("valid config")
    }

    fn downtown_net() -> DfnNetwork {
        downtown_with(ExperimentConfig::default())
    }

    fn downtown_faulted(scenario: FaultScenario) -> DfnNetwork {
        downtown_with(ExperimentConfig {
            faults: Some(scenario),
            ..ExperimentConfig::default()
        })
    }

    #[test]
    fn alice_to_bob_round_trip() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let receipt = net.send_text(200, &bob.address(), b"hello bob");
        assert!(receipt.route_found);
        assert!(receipt.delivered, "downtown delivery should succeed");
        assert!(receipt.broadcasts > 0);
        assert!(receipt.latency.is_some());
        assert_eq!(net.stored_messages(), 1);

        let inbox = net.check_mailbox(&bob, 10);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1, b"hello bob");
        assert_eq!(inbox[0].0, receipt.msg_id);
        // Retrieval acknowledges.
        assert_eq!(net.stored_messages(), 0);
        assert!(net.check_mailbox(&bob, 10).is_empty());
    }

    #[test]
    fn eve_cannot_read_bobs_mail() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let eve_keys = Keypair::from_entropy([0xEE; 32]);
        net.send_text(200, &bob.address(), b"secret");
        // Eve registered at the same postbox building cannot open it.
        let eve = User {
            keypair: eve_keys,
            postbox_building: 10,
        };
        let stolen = net.check_mailbox(&eve, 10);
        assert!(stolen.is_empty());
        // Bob still gets his mail.
        assert_eq!(net.check_mailbox(&bob, 10).len(), 1);
    }

    #[test]
    fn push_target_follows_checkins() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        assert_eq!(net.push_target(&bob), None);
        net.check_mailbox(&bob, 55);
        assert_eq!(net.push_target(&bob), Some(55));
    }

    #[test]
    fn multiple_messages_preserve_order_and_ids() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let r1 = net.send_text(200, &bob.address(), b"first");
        let r2 = net.send_text(300, &bob.address(), b"second");
        assert_ne!(r1.msg_id, r2.msg_id);
        let inbox = net.check_mailbox(&bob, 10);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].1, b"first");
        assert_eq!(inbox[1].1, b"second");
    }

    #[test]
    fn urgent_message_pushes_toward_last_known_building() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        // Bob last checked in across town with pushes enabled.
        net.check_mailbox(&bob, 400);
        let (deposit, push) = net.send_urgent(200, &bob.address(), b"URGENT: evacuate");
        assert!(deposit.delivered);
        let push = push.expect("push should be attempted");
        assert!(push.route_found);
        assert!(push.delivered, "downtown push should reach building 400");
        assert_ne!(push.msg_id, deposit.msg_id);
        // The sealed body still waits at the postbox.
        assert_eq!(net.check_mailbox(&bob, 400).len(), 1);
    }

    #[test]
    fn urgent_without_checkin_skips_push() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let (deposit, push) = net.send_urgent(200, &bob.address(), b"hello?");
        assert!(deposit.delivered);
        assert!(push.is_none(), "no known location, no push");
    }

    #[test]
    fn urgent_to_device_at_postbox_skips_push() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        net.check_mailbox(&bob, 10); // checked in at the postbox itself
        let (deposit, push) = net.send_urgent(200, &bob.address(), b"here");
        assert!(deposit.delivered);
        assert!(push.is_none());
    }

    #[test]
    fn registering_in_missing_building_is_none() {
        let mut net = downtown_net();
        assert!(net.register_user([1; 32], u32::MAX).is_none());
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let map = CityArchetype::SurveyDowntown.generate(42);
        let bad = ExperimentConfig {
            reception_loss: 1.5,
            ..ExperimentConfig::default()
        };
        assert!(DfnNetwork::new(map, bad, 42).is_err());
    }

    #[test]
    fn unregistered_recipient_not_delivered() {
        let mut net = downtown_net();
        // Bob never registered: a postbox may not even exist.
        let ghost = PostboxAddress {
            public_key: Keypair::from_entropy([5; 32]).public,
            building_id: 10,
        };
        let receipt = net.send_text(200, &ghost, b"anyone there?");
        assert!(!receipt.delivered);
        assert_eq!(net.stored_messages(), 0);
    }

    #[test]
    fn receipts_equal_the_experiments_own_pipeline() {
        // The facade adds nothing to a traversal: replaying each send's
        // msg_id on a clone of the facade's RNG through `run_pair`
        // reproduces the receipt field for field, healthy or faulted.
        for mut net in [downtown_net(), downtown_faulted(FaultScenario::iid(0.2))] {
            let n = net.experiment().map().len() as u32;
            let users: Vec<User> = (0..6u32)
                .filter_map(|i| net.register_user([i as u8 + 1; 32], (i * 83) % n))
                .collect();
            let mut delivered = 0;
            for i in 0..24u32 {
                let to = users[i as usize % users.len()].address();
                let from = (i * 131 + 7) % n;
                let mut rng = net.rng.clone();
                let r = net.send_text(from, &to, b"same pipeline");
                let o = net
                    .experiment()
                    .run_pair(from, to.building_id, r.msg_id, &mut rng);
                let sent = (r.route_found, r.delivered, r.attempts, r.broadcasts);
                let replayed = (o.route_found, o.delivered, o.attempts, o.broadcasts);
                assert_eq!(sent, replayed, "send {i}: {from} → {}", to.building_id);
                let sent = (r.latency, r.route_bits, r.waypoints);
                let replayed = (o.latency, o.route_bits, o.waypoints);
                assert_eq!(sent, replayed, "send {i}: {from} → {}", to.building_id);
                delivered += usize::from(r.delivered);
            }
            assert!(delivered > 0);
            assert_eq!(net.stored_messages(), delivered);
        }
    }

    #[test]
    fn dead_radios_deliver_nothing() {
        let mut net = downtown_faulted(FaultScenario::iid(1.0));
        let state = net.experiment().fault_state().expect("faults configured");
        assert_eq!(state.failed_count(), net.experiment().aps().len());
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let receipt = net.send_text(200, &bob.address(), b"anyone?");
        assert!(!receipt.delivered);
        assert_eq!(receipt.broadcasts, 0);
        assert_eq!(net.stored_messages(), 0);
    }

    #[test]
    fn total_reception_loss_delivers_nothing() {
        let mut net = downtown_with(ExperimentConfig {
            reception_loss: 1.0,
            ..ExperimentConfig::default()
        });
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let receipt = net.send_text(200, &bob.address(), b"static");
        assert!(receipt.route_found);
        assert!(!receipt.delivered);
        assert_eq!(net.stored_messages(), 0);
    }

    #[test]
    fn fault_scenario_climbs_the_retry_ladder() {
        let mut net = downtown_faulted(FaultScenario::iid(0.3));
        let n = net.experiment().map().len() as u32;
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let receipts: Vec<SendReceipt> = (0..30u32)
            .map(|i| net.send_text((i * 37 + 11) % n, &bob.address(), b"status?"))
            .collect();
        let max = RetryPolicy::ladder().max_attempts;
        assert!(receipts.iter().all(|r| r.attempts <= max));
        assert!(
            receipts.iter().any(|r| r.attempts > 1),
            "ladder never climbed"
        );
        assert!(receipts.iter().any(|r| r.delivered));
    }

    #[test]
    fn unknown_buildings_find_no_route() {
        let mut net = downtown_net();
        let bob = net.register_user([0xB0; 32], 10).unwrap();
        let from_nowhere = net.send_text(u32::MAX, &bob.address(), b"lost");
        assert!(!from_nowhere.route_found && !from_nowhere.delivered);
        let nowhere = PostboxAddress {
            public_key: bob.address().public_key,
            building_id: u32::MAX,
        };
        let to_nowhere = net.send_text(200, &nowhere, b"lost");
        assert!(!to_nowhere.route_found && !to_nowhere.delivered);
        assert_eq!(to_nowhere.attempts, 0);
        assert_eq!(net.stored_messages(), 0);
    }
}
