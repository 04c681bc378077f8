//! The deployment decision variable: `k` designated relay/postbox
//! sites under a budget.
//!
//! The paper's fallback network lives or dies on where its fixed
//! infrastructure sits. A [`Deployment`] names the buildings whose APs
//! are *hardened* — backup power, protected mounting — so they survive
//! blackout and battery scenarios, and whose postboxes hold mail for
//! recipients whose own buildings have gone dark. It is a pure value:
//! a sorted set of building ids plus the budget it was drawn under.
//! [`crate::CityExperiment::set_deployment`] plumbs it into a prepared
//! world (forcing the sites' APs [`crate::ApHealth::Up`] and building
//! the nearest-site fallback table); the `citymesh-place` optimizers
//! search over deployments by relocating one site at a time.

/// A rejected deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeploymentError {
    /// More distinct sites than the budget allows.
    OverBudget {
        /// Distinct sites requested.
        sites: usize,
        /// The site budget.
        budget: usize,
    },
    /// A budget of zero can never designate a site.
    ZeroBudget,
}

impl std::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeploymentError::OverBudget { sites, budget } => {
                write!(f, "deployment has {sites} sites but a budget of {budget}")
            }
            DeploymentError::ZeroBudget => write!(f, "deployment budget must be positive"),
        }
    }
}

impl std::error::Error for DeploymentError {}

/// `k` designated relay/postbox sites (building ids) under a budget.
///
/// Sites are stored sorted and deduplicated, so two deployments
/// naming the same buildings compare equal and hash to the same
/// [`Deployment::digest`] regardless of construction order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Deployment {
    /// Sorted, deduplicated designated building ids.
    sites: Vec<u32>,
    /// The site budget the deployment was drawn under (`sites.len()`
    /// may be smaller; it may never be larger).
    budget: usize,
}

impl Deployment {
    /// A deployment of `sites` (any order, duplicates collapsed) under
    /// `budget`.
    pub fn new(mut sites: Vec<u32>, budget: usize) -> Result<Self, DeploymentError> {
        if budget == 0 {
            return Err(DeploymentError::ZeroBudget);
        }
        sites.sort_unstable();
        sites.dedup();
        if sites.len() > budget {
            return Err(DeploymentError::OverBudget {
                sites: sites.len(),
                budget,
            });
        }
        Ok(Deployment { sites, budget })
    }

    /// The designated building ids, sorted ascending.
    pub fn sites(&self) -> &[u32] {
        &self.sites
    }

    /// The site budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether `building` is a designated site (binary search).
    pub fn contains(&self, building: u32) -> bool {
        self.sites.binary_search(&building).is_ok()
    }

    /// The deployment with the site at `slot` (index into the sorted
    /// site list) relocated to `to` — the annealer's one proposal
    /// move. `None` when `to` is already a site (the move would shrink
    /// the deployment) or `slot` is out of range.
    pub fn relocated(&self, slot: usize, to: u32) -> Option<Deployment> {
        if slot >= self.sites.len() || self.contains(to) {
            return None;
        }
        let mut sites = self.sites.clone();
        sites[slot] = to;
        sites.sort_unstable();
        Some(Deployment {
            sites,
            budget: self.budget,
        })
    }

    /// FNV-1a over the budget and the sorted sites — the identity the
    /// placement score digest chains over.
    pub fn digest(&self) -> u64 {
        let mut h = citymesh_simcore::Fnv64::new();
        h.mix(self.budget as u64);
        h.mix(self.sites.len() as u64);
        for &s in &self.sites {
            h.mix(u64::from(s));
        }
        h.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_sorted_and_deduplicated() {
        let d = Deployment::new(vec![9, 3, 3, 7], 4).unwrap();
        assert_eq!(d.sites(), &[3, 7, 9]);
        assert_eq!(d.budget(), 4);
        assert!(d.contains(7));
        assert!(!d.contains(4));
    }

    #[test]
    fn budget_is_enforced() {
        assert_eq!(
            Deployment::new(vec![1, 2, 3], 2),
            Err(DeploymentError::OverBudget {
                sites: 3,
                budget: 2
            })
        );
        assert_eq!(Deployment::new(vec![], 0), Err(DeploymentError::ZeroBudget));
        // Duplicates collapse before the budget check.
        assert!(Deployment::new(vec![1, 1, 1], 1).is_ok());
    }

    #[test]
    fn relocation_is_a_set_move() {
        let d = Deployment::new(vec![2, 5, 8], 3).unwrap();
        let m = d.relocated(1, 11).unwrap();
        assert_eq!(m.sites(), &[2, 8, 11]);
        assert_eq!(m.budget(), 3);
        // Moving onto an existing site or out of range is rejected.
        assert_eq!(d.relocated(0, 8), None);
        assert_eq!(d.relocated(3, 99), None);
    }

    #[test]
    fn digest_is_order_independent_and_site_sensitive() {
        let a = Deployment::new(vec![4, 1, 9], 3).unwrap();
        let b = Deployment::new(vec![9, 4, 1], 3).unwrap();
        let c = Deployment::new(vec![9, 4, 2], 3).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        // The budget is part of the identity.
        let wider = Deployment::new(vec![4, 1, 9], 5).unwrap();
        assert_ne!(a.digest(), wider.digest());
    }
}
