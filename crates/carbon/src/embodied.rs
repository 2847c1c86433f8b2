//! Embodied-carbon accounting (paper eq. IV.5).
//!
//! `C_embodied = (CI_fab * EPA + MPA + GPA) * A / Y`
//!
//! Extended with per-die yield via the models in [`crate::yield_model`],
//! multi-die assemblies (3D stacks, chiplets) with bond yield and per-die
//! TSV area overhead, and a packaging adder.

use crate::error::CarbonError;
use crate::fab::{FabProfile, ProcessNode};
use crate::intensity::grids;
use crate::units::{CarbonIntensity, GramsCo2e, KilowattHours, SquareCentimeters};
use crate::yield_model::YieldModel;
use serde::{Deserialize, Serialize};

/// Embodied carbon split into its `CI_fab`-dependent and fixed parts:
/// `C_embodied = CI_fab * fab_energy + materials`.
///
/// The split enables §IV-B-style elimination when `CI_fab` itself is
/// unknown at design time (the paper explicitly suggests this extension).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EmbodiedBreakdown {
    /// Fab energy charged per good unit (the `EPA * A / Y` term), whose
    /// carbon depends on the fab's grid.
    pub fab_energy: KilowattHours,
    /// Grid-independent carbon: materials (`MPA`), direct gases (`GPA`),
    /// packaging, and bonding.
    pub materials: GramsCo2e,
}

impl EmbodiedBreakdown {
    /// Total embodied carbon at a concrete fab intensity.
    #[must_use]
    pub fn total(&self, ci_fab: CarbonIntensity) -> GramsCo2e {
        ci_fab * self.fab_energy + self.materials
    }
}

impl core::ops::Add for EmbodiedBreakdown {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            fab_energy: self.fab_energy + rhs.fab_energy,
            materials: self.materials + rhs.materials,
        }
    }
}

/// A single silicon die to be fabricated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Die {
    /// Human-readable label (e.g. `"logic"`, `"sram-tier-1"`).
    pub name: String,
    /// Die area before any TSV overhead.
    pub area: SquareCentimeters,
    /// Technology node the die is fabricated in.
    pub node: ProcessNode,
}

impl Die {
    /// Creates a die.
    ///
    /// # Errors
    ///
    /// Returns an error if `area` is not positive.
    pub fn new(
        name: impl Into<String>,
        area: SquareCentimeters,
        node: ProcessNode,
    ) -> Result<Self, CarbonError> {
        CarbonError::require_positive("die area", area.value())?;
        Ok(Self {
            name: name.into(),
            area,
            node,
        })
    }
}

/// The fab-level parameters of an embodied-carbon calculation.
///
/// # Examples
///
/// ```
/// use cordoba_carbon::embodied::{Die, EmbodiedModel};
/// use cordoba_carbon::fab::ProcessNode;
/// use cordoba_carbon::units::SquareCentimeters;
///
/// let model = EmbodiedModel::default();
/// let die = Die::new("soc", SquareCentimeters::new(2.25), ProcessNode::N7)?;
/// let carbon = model.die_carbon(&die);
/// assert!(carbon.value() > 4_000.0 && carbon.value() < 9_000.0);
/// # Ok::<(), cordoba_carbon::CarbonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbodiedModel {
    ci_fab: CarbonIntensity,
    yield_model: YieldModel,
    packaging_per_die: GramsCo2e,
}

impl EmbodiedModel {
    /// Creates a model with explicit parameters.
    #[must_use]
    pub fn new(
        ci_fab: CarbonIntensity,
        yield_model: YieldModel,
        packaging_per_die: GramsCo2e,
    ) -> Self {
        Self {
            ci_fab,
            yield_model,
            packaging_per_die,
        }
    }

    /// Carbon intensity of the fab's energy source.
    #[must_use]
    pub fn ci_fab(&self) -> CarbonIntensity {
        self.ci_fab
    }

    /// The yield model used to inflate effective area.
    #[must_use]
    pub fn yield_model(&self) -> YieldModel {
        self.yield_model
    }

    /// Packaging carbon charged per die (content-addressed stores key on
    /// this alongside `ci_fab` and the yield model).
    #[must_use]
    pub fn packaging_per_die(&self) -> GramsCo2e {
        self.packaging_per_die
    }

    /// Returns a copy using a different yield model (for ablations).
    #[must_use]
    pub fn with_yield_model(mut self, yield_model: YieldModel) -> Self {
        self.yield_model = yield_model;
        self
    }

    /// Returns a copy using a different fab carbon intensity.
    #[must_use]
    pub fn with_ci_fab(mut self, ci_fab: CarbonIntensity) -> Self {
        self.ci_fab = ci_fab;
        self
    }

    /// Embodied carbon of fabricating one good die (eq. IV.5), excluding
    /// packaging: `(CI_fab * EPA + MPA + GPA) * A / Y`.
    #[must_use]
    pub fn die_carbon(&self, die: &Die) -> GramsCo2e {
        self.area_carbon(die.area, die.node)
    }

    /// Eq. IV.5 for one die of `area` on `node`: the one place the
    /// per-die formula lives.
    fn area_carbon(&self, area: SquareCentimeters, node: ProcessNode) -> GramsCo2e {
        let profile = node.profile();
        let per_area = self.per_area_carbon(&profile);
        let effective = self
            .yield_model
            .effective_area(area, profile.defect_density);
        per_area * effective.value()
    }

    /// Carbon of fabricating one square centimeter under `profile`, before
    /// yield: `CI_fab * EPA + MPA + GPA`.
    fn per_area_carbon(&self, profile: &FabProfile) -> GramsCo2e {
        let per_area_fab: GramsCo2e = self.ci_fab * (profile.epa * SquareCentimeters::new(1.0));
        per_area_fab
            + profile.mpa * SquareCentimeters::new(1.0)
            + profile.gpa * SquareCentimeters::new(1.0)
    }

    /// Embodied carbon of a packaged single-die part.
    #[must_use]
    pub fn packaged_die_carbon(&self, die: &Die) -> GramsCo2e {
        self.die_carbon(die) + self.packaging_per_die
    }

    /// The `CI_fab`-separable breakdown of one die's embodied carbon.
    ///
    /// Invariant: `die_breakdown(d).total(ci_fab()) == die_carbon(d)`.
    #[must_use]
    pub fn die_breakdown(&self, die: &Die) -> EmbodiedBreakdown {
        self.area_breakdown(die.area, die.node)
    }

    fn area_breakdown(&self, area: SquareCentimeters, node: ProcessNode) -> EmbodiedBreakdown {
        let profile = node.profile();
        let effective = self
            .yield_model
            .effective_area(area, profile.defect_density);
        EmbodiedBreakdown {
            fab_energy: profile.epa * effective,
            materials: (profile.mpa + profile.gpa)
                * SquareCentimeters::new(1.0)
                * effective.value(),
        }
    }

    /// The `CI_fab`-separable breakdown of a multi-die assembly
    /// (packaging and bonding carbon count as materials).
    #[must_use]
    pub fn assembly_breakdown(&self, assembly: &Assembly) -> EmbodiedBreakdown {
        let mut total = EmbodiedBreakdown::default();
        for d in &assembly.dice {
            let inflated = d.area * (1.0 + assembly.tsv_area_overhead);
            total = total + self.area_breakdown(inflated, d.node);
        }
        let bond_yield = assembly.compound_bond_yield();
        EmbodiedBreakdown {
            fab_energy: total.fab_energy / bond_yield,
            materials: total.materials / bond_yield
                + self.packaging_per_die
                + assembly.bonding_carbon,
        }
    }

    /// Embodied carbon of one good die computed through wafer geometry:
    /// the whole wafer's fab carbon divided by (gross dies per wafer x
    /// yield).
    ///
    /// This is the "die placement" refinement the paper adds to ACT \[11\]:
    /// it additionally charges each die for the partial dies lost at the
    /// wafer edge, so it is always >= [`EmbodiedModel::die_carbon`], with
    /// the gap growing for large dies.
    ///
    /// # Errors
    ///
    /// Returns an error if the die does not fit the wafer.
    pub fn die_carbon_via_wafer(
        &self,
        die: &Die,
        wafer: &crate::wafer::Wafer,
    ) -> Result<GramsCo2e, CarbonError> {
        let profile = die.node.profile();
        let wafer_carbon = self.per_area_carbon(&profile) * wafer.usable_area().value();
        let gross = wafer.gross_dies(die.area)?;
        let good = gross * self.yield_model.fraction(die.area, profile.defect_density);
        Ok(wafer_carbon / good)
    }

    /// Embodied carbon of a multi-die assembly.
    ///
    /// Each die pays its own fab carbon; the whole stack is divided by the
    /// compound bond yield (a failed bond discards every die in the stack)
    /// and pays one packaging adder plus `assembly.bonding_carbon`.
    #[must_use]
    pub fn assembly_carbon(&self, assembly: &Assembly) -> GramsCo2e {
        self.stack_carbon(
            assembly.dice.iter().map(|d| (d.area, d.node)),
            assembly.tsv_area_overhead,
            assembly.compound_bond_yield(),
            assembly.bonding_carbon,
        )
    }

    /// Embodied carbon of a die stack given as `(area, node)` pairs, bottom
    /// to top — the allocation-free form of
    /// [`assembly_carbon`](Self::assembly_carbon), for callers that know
    /// their dice without building an [`Assembly`].
    ///
    /// Each area is inflated by `tsv_area_overhead` and priced by eq. IV.5;
    /// the sum is divided by `compound_bond_yield` (see
    /// [`compound_bond_yield`]) and pays one packaging adder plus
    /// `bonding_carbon`. Areas are not validated here: [`Die::new`] is
    /// where a non-positive area becomes an error.
    #[must_use]
    pub fn stack_carbon(
        &self,
        dice: impl IntoIterator<Item = (SquareCentimeters, ProcessNode)>,
        tsv_area_overhead: f64,
        compound_bond_yield: f64,
        bonding_carbon: GramsCo2e,
    ) -> GramsCo2e {
        let dice: GramsCo2e = dice
            .into_iter()
            .map(|(area, node)| self.area_carbon(area * (1.0 + tsv_area_overhead), node))
            .sum();
        dice / compound_bond_yield + self.packaging_per_die + bonding_carbon
    }
}

impl Default for EmbodiedModel {
    /// A coal-heavy fab grid (the paper's `CI_fab` = 820 gCO2e/kWh example),
    /// Murphy yield, and a 50 gCO2e packaging adder.
    fn default() -> Self {
        Self {
            ci_fab: grids::COAL,
            yield_model: YieldModel::Murphy,
            packaging_per_die: GramsCo2e::new(50.0),
        }
    }
}

/// A vertically integrated multi-die assembly (3D stack or 2.5D package).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assembly {
    /// The dice in the stack, bottom to top.
    pub dice: Vec<Die>,
    /// Fractional area overhead per die for TSVs / hybrid-bond pads
    /// (e.g. `0.05` for 5 %).
    pub tsv_area_overhead: f64,
    /// Yield of each bonding step between adjacent dice.
    pub bond_yield_per_interface: f64,
    /// Direct carbon of the bonding process itself.
    pub bonding_carbon: GramsCo2e,
}

impl Assembly {
    /// Creates an assembly.
    ///
    /// # Errors
    ///
    /// Returns an error if `dice` is empty, `tsv_area_overhead` is negative
    /// or not finite, or `bond_yield_per_interface` is outside `(0, 1]`.
    pub fn new(
        dice: Vec<Die>,
        tsv_area_overhead: f64,
        bond_yield_per_interface: f64,
        bonding_carbon: GramsCo2e,
    ) -> Result<Self, CarbonError> {
        if dice.is_empty() {
            return Err(CarbonError::Empty {
                what: "assembly dice",
            });
        }
        CarbonError::require_in_range("tsv area overhead", tsv_area_overhead, 0.0, 1.0)?;
        CarbonError::require_in_range(
            "bond yield per interface",
            bond_yield_per_interface,
            f64::MIN_POSITIVE,
            1.0,
        )?;
        Ok(Self {
            dice,
            tsv_area_overhead,
            bond_yield_per_interface,
            bonding_carbon,
        })
    }

    /// Number of bonding interfaces (dice - 1).
    #[must_use]
    pub fn interfaces(&self) -> usize {
        self.dice.len().saturating_sub(1)
    }

    /// Compound yield across all bonding steps.
    #[must_use]
    pub fn compound_bond_yield(&self) -> f64 {
        compound_bond_yield(self.bond_yield_per_interface, self.interfaces())
    }

    /// Total silicon area including TSV overhead.
    #[must_use]
    pub fn total_area(&self) -> SquareCentimeters {
        self.dice
            .iter()
            .map(|d| d.area * (1.0 + self.tsv_area_overhead))
            .sum()
    }

    /// Footprint (area of the largest die) — the package X-Y size.
    #[must_use]
    pub fn footprint(&self) -> SquareCentimeters {
        self.dice
            .iter()
            .map(|d| d.area * (1.0 + self.tsv_area_overhead))
            .fold(SquareCentimeters::ZERO, SquareCentimeters::max)
    }
}

/// Yield of a stack with `interfaces` bonding steps of
/// `per_interface` yield each: a failed bond discards the whole stack.
#[must_use]
pub fn compound_bond_yield(per_interface: f64, interfaces: usize) -> f64 {
    per_interface.powi(i32::try_from(interfaces).unwrap_or(i32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die(area: f64) -> Die {
        Die::new("test", SquareCentimeters::new(area), ProcessNode::N7).unwrap()
    }

    #[test]
    fn eq_iv5_matches_hand_computation_with_fixed_yield() {
        // Paper Table III-flavored check: 7 nm, CI_fab 820, EPA 2.15,
        // MPA 500, GPA 300, A = 2.25 cm^2, Y = 0.98.
        let model = EmbodiedModel::new(
            CarbonIntensity::new(820.0),
            YieldModel::fixed(0.98).unwrap(),
            GramsCo2e::ZERO,
        );
        let c = model.die_carbon(&die(2.25));
        let expected = (820.0 * 2.15 + 500.0 + 300.0) * 2.25 / 0.98;
        assert!((c.value() - expected).abs() < 1e-6, "{c} vs {expected}");
        // Same order of magnitude as the paper's 5375.33 gCO2e.
        assert!(c.value() > 4_000.0 && c.value() < 7_000.0);
    }

    #[test]
    fn carbon_scales_superlinearly_with_area_under_murphy() {
        let model = EmbodiedModel::default();
        let c1 = model.die_carbon(&die(1.0));
        let c4 = model.die_carbon(&die(4.0));
        // 4x the area must cost more than 4x the carbon (yield loss).
        assert!(c4.value() > 4.0 * c1.value());
    }

    #[test]
    fn newer_node_costs_more_per_area() {
        let model = EmbodiedModel::default();
        let old = model
            .die_carbon(&Die::new("a", SquareCentimeters::new(1.0), ProcessNode::N28).unwrap());
        let new =
            model.die_carbon(&Die::new("b", SquareCentimeters::new(1.0), ProcessNode::N3).unwrap());
        assert!(new.value() > 1.5 * old.value());
    }

    #[test]
    fn cleaner_fab_grid_reduces_embodied() {
        let dirty = EmbodiedModel::default();
        let clean = EmbodiedModel::default().with_ci_fab(grids::HYDRO);
        let d = die(2.0);
        assert!(clean.die_carbon(&d) < dirty.die_carbon(&d));
        assert_eq!(clean.ci_fab(), grids::HYDRO);
    }

    #[test]
    fn packaging_adder_applies_once() {
        let model = EmbodiedModel::new(grids::COAL, YieldModel::Murphy, GramsCo2e::new(50.0));
        let d = die(1.0);
        let bare = model.die_carbon(&d);
        let packaged = model.packaged_die_carbon(&d);
        assert!((packaged.value() - bare.value() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn assembly_pays_tsv_and_bond_yield() {
        let model = EmbodiedModel::new(
            grids::COAL,
            YieldModel::fixed(1.0).unwrap(),
            GramsCo2e::ZERO,
        );
        let dice = vec![die(1.0), die(1.0)];
        let asm = Assembly::new(dice, 0.05, 0.99, GramsCo2e::new(10.0)).unwrap();
        assert_eq!(asm.interfaces(), 1);
        assert!((asm.compound_bond_yield() - 0.99).abs() < 1e-12);
        let single = model.die_carbon(&die(1.05));
        let total = model.assembly_carbon(&asm);
        let expected = 2.0 * single.value() / 0.99 + 10.0;
        assert!((total.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn assembly_geometry() {
        let asm = Assembly::new(
            vec![die(2.0), die(1.0), die(1.0)],
            0.10,
            0.98,
            GramsCo2e::ZERO,
        )
        .unwrap();
        assert_eq!(asm.interfaces(), 2);
        assert!((asm.total_area().value() - 4.4).abs() < 1e-12);
        assert!((asm.footprint().value() - 2.2).abs() < 1e-12);
        assert!((asm.compound_bond_yield() - 0.98f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn assembly_validation() {
        assert!(Assembly::new(vec![], 0.0, 1.0, GramsCo2e::ZERO).is_err());
        assert!(Assembly::new(vec![die(1.0)], -0.1, 1.0, GramsCo2e::ZERO).is_err());
        assert!(Assembly::new(vec![die(1.0)], 0.0, 0.0, GramsCo2e::ZERO).is_err());
        assert!(Assembly::new(vec![die(1.0)], 0.0, 1.5, GramsCo2e::ZERO).is_err());
    }

    #[test]
    fn single_die_assembly_equals_packaged_die() {
        let model = EmbodiedModel::default();
        let asm = Assembly::new(vec![die(1.0)], 0.0, 1.0, GramsCo2e::ZERO).unwrap();
        let a = model.assembly_carbon(&asm);
        let b = model.packaged_die_carbon(&die(1.0));
        assert!((a.value() - b.value()).abs() < 1e-9);
    }

    #[test]
    fn breakdown_reassembles_to_die_carbon() {
        let model = EmbodiedModel::default();
        for area in [0.25, 1.0, 3.0] {
            let d = die(area);
            let split = model.die_breakdown(&d);
            let total = split.total(model.ci_fab());
            let direct = model.die_carbon(&d);
            assert!(
                (total.value() - direct.value()).abs() < 1e-9 * direct.value(),
                "area {area}"
            );
            assert!(split.fab_energy.value() > 0.0);
            assert!(split.materials.value() > 0.0);
        }
    }

    #[test]
    fn assembly_breakdown_reassembles_to_assembly_carbon() {
        let model = EmbodiedModel::new(grids::COAL, YieldModel::Murphy, GramsCo2e::new(50.0));
        let asm = Assembly::new(
            vec![die(1.0), die(0.5), die(0.5)],
            0.05,
            0.99,
            GramsCo2e::new(10.0),
        )
        .unwrap();
        let split = model.assembly_breakdown(&asm);
        let total = split.total(model.ci_fab());
        let direct = model.assembly_carbon(&asm);
        assert!((total.value() - direct.value()).abs() < 1e-9 * direct.value());
        // A cleaner fab grid only shrinks the energy part.
        let clean_total = split.total(grids::HYDRO);
        assert!(clean_total < total);
        assert!(clean_total >= split.materials);
    }

    #[test]
    fn breakdowns_add() {
        let model = EmbodiedModel::default();
        let a = model.die_breakdown(&die(1.0));
        let b = model.die_breakdown(&die(2.0));
        let sum = a + b;
        assert!(
            (sum.fab_energy.value() - a.fab_energy.value() - b.fab_energy.value()).abs() < 1e-12
        );
        assert!((sum.materials.value() - a.materials.value() - b.materials.value()).abs() < 1e-9);
    }

    #[test]
    fn wafer_path_charges_edge_losses_on_top_of_area_path() {
        let model = EmbodiedModel::default();
        let wafer = crate::wafer::Wafer::new_300mm();
        for area in [0.5, 1.0, 2.0, 4.0] {
            let d = die(area);
            let by_area = model.die_carbon(&d);
            let by_wafer = model.die_carbon_via_wafer(&d, &wafer).unwrap();
            assert!(
                by_wafer > by_area,
                "wafer path should include edge losses (area {area})"
            );
            // Within ~25% for production-sized dice.
            assert!(by_wafer.value() / by_area.value() < 1.25, "area {area}");
        }
        // The gap grows with die size.
        let small_gap = model
            .die_carbon_via_wafer(&die(0.5), &wafer)
            .unwrap()
            .value()
            / model.die_carbon(&die(0.5)).value();
        let big_gap = model
            .die_carbon_via_wafer(&die(4.0), &wafer)
            .unwrap()
            .value()
            / model.die_carbon(&die(4.0)).value();
        assert!(big_gap > small_gap);
    }

    #[test]
    fn wafer_path_rejects_oversized_dies() {
        let model = EmbodiedModel::default();
        let wafer = crate::wafer::Wafer::new_300mm();
        assert!(model.die_carbon_via_wafer(&die(700.0), &wafer).is_err());
    }

    #[test]
    fn die_validation() {
        assert!(Die::new("x", SquareCentimeters::new(0.0), ProcessNode::N7).is_err());
        assert!(Die::new("x", SquareCentimeters::new(-1.0), ProcessNode::N7).is_err());
    }
}
