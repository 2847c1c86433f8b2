//! # cordoba-accel
//!
//! ML accelerator simulator substrate for the CORDOBA framework — a
//! from-scratch analytical rebuild of the performance/power simulator the
//! paper uses (Fig. 5, based on \[48\], \[44\]) plus its 3D-stacking extension
//! \[54\].
//!
//! * [`cache`] — embodied-carbon memoization keyed by configuration shape,
//!   with an optional persistent tier (the sweeps price embodied carbon
//!   directly: recomputing is cheaper than a lookup);
//! * [`params`] — per-node technology tuning (MAC/SRAM/DRAM energies, area,
//!   leakage, LPDDR4 bandwidth);
//! * [`config`] — accelerator design points: MAC units x SRAM, 2D or
//!   3D-stacked, with die-area and embodied-carbon accounting;
//! * [`sim`] — roofline latency/energy simulation with an SRAM-overflow
//!   re-fetch model, producing [`cordoba_workloads::cost::CostTable`]s;
//! * [`space`] — the 121-configuration design space (`a1..a121`);
//! * [`stacking`] — the Fig. 11 baseline + six 3D configurations.
//!
//! # Example
//!
//! ```
//! use cordoba_accel::prelude::*;
//! use cordoba_workloads::prelude::*;
//!
//! let a48 = config_by_name("a48").expect("a48 is in the space");
//! let table = full_cost_table(&a48);
//! let delay = table.task_delay(&Task::xr_10_kernels())?;
//! assert!(delay.is_positive());
//! # Ok::<(), cordoba_workloads::cost::MissingKernel>(())
//! ```

pub mod cache;
pub mod config;
pub mod layered_sim;
pub mod params;
pub mod sim;
pub mod space;
pub mod stacking;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::cache::{CacheStats, EmbodiedCache};
    pub use crate::config::{AcceleratorConfig, MemoryIntegration};
    pub use crate::layered_sim::{layered_cost_table, simulate_layered, LayerSim, LayeredSim};
    pub use crate::params::{TechTuning, MACS_PER_UNIT};
    pub use crate::sim::{
        cost_table, full_cost_table, full_cost_table_batch, simulate, simulate_batch, ConfigBatch,
        KernelSim, KernelSlab, SlabCosts, TaskPlan,
    };
    pub use crate::space::{config_by_name, design_space, GridIndex, SPACE_SIZE};
    pub use crate::stacking::{baseline, stacked_configs, study_configs};
}
