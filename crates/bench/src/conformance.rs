//! Protocol-monitor attachment for the hand-assembled experiment binaries.
//!
//! `cheshire_soc::Testbench` wires [`ProtocolMonitor`]s automatically; the
//! extension and related-work binaries build their systems directly on a
//! [`Sim`] and use this rig to get the same coverage: one monitor per named
//! port, link and boundary conservation via a [`Scoreboard`], and a final
//! [`MonitorRig::assert_clean`]. Honours `REALM_MONITORS=0` like the
//! testbench.

use axi_conformance::{ConformanceReport, ProtocolMonitor, Scoreboard};
use axi_sim::{AxiBundle, ComponentId, Sim};

/// Accumulates monitors and scoreboard relations while a binary assembles
/// its system by hand.
pub struct MonitorRig {
    monitors: Vec<ComponentId>,
    scoreboard: Scoreboard,
    enabled: bool,
}

impl MonitorRig {
    /// Creates a rig; monitors default on unless `REALM_MONITORS` is set to
    /// `0`, `off`, or `false` ([`cheshire_soc::monitors_enabled_by_env`]).
    pub fn new() -> Self {
        Self {
            monitors: Vec::new(),
            scoreboard: Scoreboard::new(),
            enabled: cheshire_soc::monitors_enabled_by_env(),
        }
    }

    /// Attaches a monitor to `bundle` under `name` (no-op when disabled).
    pub fn port(&mut self, sim: &mut Sim, name: &str, bundle: AxiBundle) {
        if self.enabled {
            self.monitors
                .push(ProtocolMonitor::attach(sim, name, bundle));
        }
    }

    /// Declares a beat-conserving link between two monitored ports.
    pub fn link(&mut self, up: &str, down: &str) {
        if self.enabled {
            self.scoreboard = std::mem::take(&mut self.scoreboard).link(up, down);
        }
    }

    /// Declares an interconnect boundary between monitored port groups.
    pub fn boundary(&mut self, managers: &[&str], subordinates: &[&str]) {
        if self.enabled {
            self.scoreboard = std::mem::take(&mut self.scoreboard).boundary(managers, subordinates);
        }
    }

    /// Panics with the full report if any monitor saw a violation. The
    /// access sanitizer's verdict (`REALM_SANITIZE=1`) is checked even
    /// when the rig itself is disabled: an undeclared wire access is a
    /// port-declaration bug regardless of whether protocol monitors run.
    pub fn assert_clean(&self, sim: &Sim) {
        let san = sim.sanitizer_violations();
        assert!(
            san.is_empty(),
            "access sanitizer recorded {} violation(s) ({} dropped beyond the cap):\n{}",
            san.len(),
            sim.sanitizer_violations_dropped(),
            san.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        if self.enabled {
            ConformanceReport::collect(sim, &self.monitors, &self.scoreboard).assert_clean();
        }
    }
}

impl Default for MonitorRig {
    fn default() -> Self {
        Self::new()
    }
}
