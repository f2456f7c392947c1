//! Simulator configuration (the paper's Table 1 plus the scheme knobs).

use hpa_cache::HierarchyConfig;
use hpa_isa::FuClass;

/// Functional-unit counts per class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FuCounts {
    /// Integer ALUs (also execute branches and jumps).
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_muldiv: u32,
    /// Floating-point ALUs.
    pub fp_alu: u32,
    /// Floating-point multiply/divide units.
    pub fp_muldiv: u32,
    /// Memory ports.
    pub mem_ports: u32,
}

impl FuCounts {
    /// The paper's 4-wide configuration: 4 integer ALUs, 2 floating ALUs,
    /// 2 integer MULT/DIV, 2 floating MULT/DIV, 2 memory ports.
    #[must_use]
    pub fn four_wide() -> FuCounts {
        FuCounts { int_alu: 4, int_muldiv: 2, fp_alu: 2, fp_muldiv: 2, mem_ports: 2 }
    }

    /// The paper's 8-wide configuration: doubled everywhere.
    #[must_use]
    pub fn eight_wide() -> FuCounts {
        FuCounts { int_alu: 8, int_muldiv: 4, fp_alu: 4, fp_muldiv: 4, mem_ports: 4 }
    }

    /// Units for one class.
    #[must_use]
    pub fn of(&self, class: FuClass) -> u32 {
        match class {
            FuClass::IntAlu => self.int_alu,
            FuClass::IntMulDiv => self.int_muldiv,
            FuClass::FpAlu => self.fp_alu,
            FuClass::FpMulDiv => self.fp_muldiv,
            FuClass::MemPort => self.mem_ports,
        }
    }
}

/// The wakeup-logic organization (paper §3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeupScheme {
    /// Both source comparators on the broadcast bus (the base machine).
    Conventional,
    /// **Sequential wakeup** (paper §3.3): the predicted-last operand sits
    /// on the fast bus; the other side hears tags one cycle later via the
    /// slow bus. Never mis-schedules; worst case is a 1-cycle issue delay.
    SequentialWakeup {
        /// Entries in the PC-indexed last-arriving predictor; `None` uses
        /// the static "right operand arrives last" policy (the
        /// no-predictor bars of Figure 14).
        predictor_entries: Option<usize>,
    },
    /// **Tag elimination** (Ernst & Austin, the paper's comparison point):
    /// only the predicted-last operand has a comparator; the other
    /// operand's readiness is verified by a scoreboard at issue, and a
    /// wrong guess squashes and replays everything issued after it.
    TagElimination {
        /// Entries in the PC-indexed last-arriving predictor.
        predictor_entries: usize,
    },
}

/// The register-file read-port organization (paper §4 and §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegFileScheme {
    /// Two read ports per issue slot (the base machine).
    DualPort,
    /// **Sequential register access** (paper §4.3): one port per slot; a
    /// 2-source instruction with no `now` bit reads twice, costing +1
    /// cycle of latency and its issue slot for one cycle.
    SequentialAccess,
    /// A conventional dual-ported file pipelined over one extra stage
    /// (the middle bars of Figure 15).
    ExtraStage,
    /// Half the read ports shared through a crossbar with global
    /// arbitration (Balasubramonian-style; right bars of Figure 15).
    SharedCrossbar,
}

/// The register-rename port organization (the paper's §6 "future work":
/// extending half-price to register renaming).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RenameScheme {
    /// Two map-table read ports per pipeline slot (the base machine):
    /// renaming never stalls dispatch.
    FullPorts,
    /// **Half-price renaming**: one map-table read port per slot. A
    /// dispatch group needing more lookups than slots spills into the
    /// next cycle — 2-source instructions may take an extra rename cycle.
    HalfPorts,
}

/// The bypass-network organization (the paper's §6 "future work":
/// extending half-price to the bypass logic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BypassScheme {
    /// A full result crossbar: any in-flight result can feed both inputs
    /// of any functional unit in the same cycle (the base machine).
    Full,
    /// **Half-price bypass**: one bypass input per functional unit. An
    /// instruction whose *both* operands would have to come off the
    /// bypass in the issue cycle is deferred one cycle, after which the
    /// earlier value is readable from the register file.
    HalfPaths,
}

/// How mis-scheduled instructions are recovered after a load-latency
/// mis-speculation (paper §2.1 and Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryKind {
    /// Alpha 21264 style: every instruction issued in the mis-speculation
    /// shadow replays, dependent or not. The paper's evaluation default.
    NonSelective,
    /// Dependence-matrix style (Figure 5): only instructions transitively
    /// dependent on the mis-scheduled load replay.
    Selective,
}

/// Full machine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Fetch/issue/commit width.
    pub width: u32,
    /// RUU (unified window/ROB) entries.
    pub ruu_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Cycles from fetch to scheduler insertion (the front-end stages).
    pub frontend_depth: u32,
    /// Functional-unit counts.
    pub fu: FuCounts,
    /// Wakeup organization.
    pub wakeup: WakeupScheme,
    /// Register-file organization.
    pub regfile: RegFileScheme,
    /// Replay scope on mis-scheduling.
    pub recovery: RecoveryKind,
    /// Rename-port organization (§6 extension; `FullPorts` in the paper's
    /// evaluation).
    pub rename: RenameScheme,
    /// Bypass-network organization (§6 extension; `Full` in the paper's
    /// evaluation).
    pub bypass: BypassScheme,
    /// Memory system.
    pub hierarchy: HierarchyConfig,
    /// Stop after this many committed instructions in total, including
    /// warmup (`u64::MAX` = run to `halt`).
    pub max_insts: u64,
    /// Commit this many instructions before resetting the statistics
    /// (standard warmup methodology). Predictors, caches and the
    /// last-arrival shadow bank stay warm across the reset, and the
    /// Figure 7 accuracy counters restart with the statistics; the
    /// memory-hierarchy counters span the whole run.
    pub warmup_insts: u64,
    /// Entries in the direct-mapped PC-indexed side tables (the 21264
    /// stWait bits and the wakeup-order history). Power of two; PCs one
    /// table span apart alias, like the modeled hardware.
    pub pc_table_entries: usize,
}

impl SimConfig {
    /// The paper's 4-wide base machine: 4-wide, 64 RUU, 32 LSQ.
    #[must_use]
    pub fn four_wide() -> SimConfig {
        SimConfig {
            width: 4,
            ruu_size: 64,
            lsq_size: 32,
            frontend_depth: 7,
            fu: FuCounts::four_wide(),
            wakeup: WakeupScheme::Conventional,
            regfile: RegFileScheme::DualPort,
            recovery: RecoveryKind::NonSelective,
            rename: RenameScheme::FullPorts,
            bypass: BypassScheme::Full,
            hierarchy: HierarchyConfig::table1(),
            max_insts: u64::MAX,
            warmup_insts: 0,
            pc_table_entries: 4096,
        }
    }

    /// The paper's 8-wide base machine: 8-wide, 128 RUU, 64 LSQ.
    #[must_use]
    pub fn eight_wide() -> SimConfig {
        SimConfig {
            width: 8,
            ruu_size: 128,
            lsq_size: 64,
            fu: FuCounts::eight_wide(),
            ..SimConfig::four_wide()
        }
    }

    /// Sets the wakeup scheme (builder style).
    #[must_use]
    pub fn with_wakeup(mut self, wakeup: WakeupScheme) -> SimConfig {
        self.wakeup = wakeup;
        self
    }

    /// Sets the register-file scheme (builder style).
    #[must_use]
    pub fn with_regfile(mut self, regfile: RegFileScheme) -> SimConfig {
        self.regfile = regfile;
        self
    }

    /// Sets the recovery kind (builder style).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryKind) -> SimConfig {
        self.recovery = recovery;
        self
    }

    /// Sets the committed-instruction budget (builder style).
    #[must_use]
    pub fn with_max_insts(mut self, max_insts: u64) -> SimConfig {
        self.max_insts = max_insts;
        self
    }

    /// Sets the warmup length (builder style).
    #[must_use]
    pub fn with_warmup(mut self, warmup_insts: u64) -> SimConfig {
        self.warmup_insts = warmup_insts;
        self
    }

    /// Sets the rename-port scheme (builder style).
    #[must_use]
    pub fn with_rename(mut self, rename: RenameScheme) -> SimConfig {
        self.rename = rename;
        self
    }

    /// Sets the bypass scheme (builder style).
    #[must_use]
    pub fn with_bypass(mut self, bypass: BypassScheme) -> SimConfig {
        self.bypass = bypass;
        self
    }

    /// Sets the PC-indexed side-table size (builder style).
    ///
    /// # Panics
    ///
    /// The simulator constructor panics if the size is not a power of two.
    #[must_use]
    pub fn with_pc_table_entries(mut self, pc_table_entries: usize) -> SimConfig {
        self.pc_table_entries = pc_table_entries;
        self
    }

    /// Whether the wakeup scheme has a slow bus (sequential wakeup): the
    /// wakeup phase, the last-arrival unit and CPI attribution all ask.
    pub(crate) fn slow_bus(&self) -> bool {
        matches!(self.wakeup, WakeupScheme::SequentialWakeup { .. })
    }

    /// Extra pipeline stages the register-file scheme inserts between
    /// schedule and execute.
    #[must_use]
    pub fn extra_rf_stages(&self) -> u32 {
        u32::from(self.regfile == RegFileScheme::ExtraStage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let c4 = SimConfig::four_wide();
        assert_eq!(c4.width, 4);
        assert_eq!(c4.ruu_size, 64);
        assert_eq!(c4.lsq_size, 32);
        assert_eq!(c4.fu.of(FuClass::IntAlu), 4);
        assert_eq!(c4.fu.of(FuClass::MemPort), 2);

        let c8 = SimConfig::eight_wide();
        assert_eq!(c8.width, 8);
        assert_eq!(c8.ruu_size, 128);
        assert_eq!(c8.lsq_size, 64);
        assert_eq!(c8.fu.of(FuClass::FpMulDiv), 4);
        assert_eq!(c8.frontend_depth, c4.frontend_depth);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::four_wide()
            .with_wakeup(WakeupScheme::SequentialWakeup { predictor_entries: Some(1024) })
            .with_regfile(RegFileScheme::SequentialAccess)
            .with_recovery(RecoveryKind::Selective)
            .with_max_insts(1000);
        assert!(matches!(c.wakeup, WakeupScheme::SequentialWakeup { .. }));
        assert_eq!(c.regfile, RegFileScheme::SequentialAccess);
        assert_eq!(c.recovery, RecoveryKind::Selective);
        assert_eq!(c.max_insts, 1000);
        assert_eq!(c.extra_rf_stages(), 0);
        assert_eq!(
            SimConfig::four_wide().with_regfile(RegFileScheme::ExtraStage).extra_rf_stages(),
            1
        );
    }
}
