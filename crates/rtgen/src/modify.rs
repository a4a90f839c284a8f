//! RT modification (compiler step 2, paper section 4): resource merging
//! and instruction-set imposition.
//!
//! "In step 2 the core specification is taken into account. This means two
//! things, first the register files and busses can be merged and secondly
//! the instruction set is taken into account. Both aspects are realized by
//! modification of the RTs."

use std::collections::BTreeMap;
use std::fmt;

use dspcc_arch::merge::{MergeError, MergePlan};
use dspcc_arch::Datapath;
use dspcc_ir::{Program, Resource, Usage};
use dspcc_isa::{ArtificialResource, Classification};

use crate::lower::Lowering;

/// RT-modification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ModifyError {
    /// The merge plan itself is invalid.
    Merge(MergeError),
    /// Merging maps two differently-used resources of one RT together —
    /// the RT would conflict with itself and can never execute.
    SelfConflict {
        /// The RT's diagnostic name.
        rt: String,
        /// The merged resource.
        resource: String,
    },
}

impl fmt::Display for ModifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModifyError::Merge(e) => write!(f, "merge plan: {e}"),
            ModifyError::SelfConflict { rt, resource } => write!(
                f,
                "merging makes RT `{rt}` conflict with itself on `{resource}`"
            ),
        }
    }
}

impl std::error::Error for ModifyError {}

impl From<MergeError> for ModifyError {
    fn from(e: MergeError) -> Self {
        ModifyError::Merge(e)
    }
}

/// Applies a merge plan to a lowering: rewrites every RT's resources and
/// register references, updates usage arguments that name buses, installs
/// multiplexer usages that merging made necessary, and returns the merged
/// datapath.
///
/// # Errors
///
/// Returns [`ModifyError`] if the plan is invalid or an RT becomes
/// self-conflicting.
pub fn apply_merge_plan(
    lowering: &mut Lowering,
    dp: &Datapath,
    plan: &MergePlan,
) -> Result<Datapath, ModifyError> {
    let merged = plan.apply(dp)?;
    let map: BTreeMap<String, String> = plan.rename_map(dp)?;
    // Resolve the rename map to interned ids once; the per-RT rename is
    // then an integer-keyed lookup.
    let id_map: std::collections::HashMap<Resource, Resource> = map
        .iter()
        .map(|(from, to)| (Resource::new(from), Resource::new(to)))
        .collect();
    let rename = |r: &Resource| -> Resource { id_map.get(r).copied().unwrap_or(*r) };
    // Driving bus per OPU in the merged datapath.
    let opu_bus: BTreeMap<String, String> = merged
        .opus()
        .iter()
        .filter_map(|o| o.output_bus().map(|b| (o.name().to_owned(), b.to_owned())))
        .collect();

    for id in lowering.program.rt_ids().collect::<Vec<_>>() {
        let rt = lowering.program.rt_mut(id);
        rt.rename_resources(rename)
            .map_err(|resource| ModifyError::SelfConflict {
                rt: String::new(),
                resource: resource.name().to_owned(),
            })?;
        // Rewrite bus names inside usage arguments (mux `pass(bus)`).
        let rewrites: Vec<(String, Usage)> = rt
            .usages()
            .filter_map(|(res, usage)| match usage {
                Usage::Apply { op, args } if args.iter().any(|a| map.contains_key(a.as_str())) => {
                    let new_args: Vec<String> = args
                        .iter()
                        .map(|a| map.get(a.as_str()).cloned().unwrap_or_else(|| a.clone()))
                        .collect();
                    Some((res.name().to_owned(), Usage::apply(op, new_args)))
                }
                _ => None,
            })
            .collect();
        for (res, usage) in rewrites {
            rt.add_usage(res.as_str(), usage);
        }
        // Install mux usages that merging created: a destination register
        // file that now has several source buses needs its mux claimed.
        let driving_bus = rt
            .usages()
            .find_map(|(res, _)| opu_bus.get(res.name()))
            .cloned();
        if let Some(bus) = driving_bus {
            let dest_rfs: Vec<String> = rt
                .dests()
                .iter()
                .map(|d| d.rf().name().to_owned())
                .collect();
            for rf in dest_rfs {
                let spec = merged
                    .register_file(&rf)
                    .expect("dest register file exists after merge");
                let mux = Datapath::mux_name(&rf);
                if spec.has_mux() && rt.usage_of(&mux).is_none() {
                    rt.add_usage(mux.as_str(), Usage::apply("pass", [bus.as_str()]));
                }
            }
        }
    }
    // Fix the diagnostic name in any self-conflict error (done above with
    // an empty name; fill it in when it occurs — handled via map_err since
    // rt borrow ends there).
    if let Some((rf, _)) = map.get_key_value(&lowering.fp_reg.0) {
        lowering.fp_reg.0 = map[rf].clone();
    }
    Ok(merged)
}

/// Imposes the instruction set on a program: installs the artificial
/// resources (paper section 6.3) and returns the resource names added —
/// the list a baseline can strip to measure the ISA's effect.
pub fn apply_instruction_set(
    program: &mut Program,
    classification: &Classification,
    resources: &[ArtificialResource],
) -> Vec<String> {
    dspcc_isa::apply_artificial_resources(program, classification, resources);
    resources.iter().map(|r| r.name().to_owned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use dspcc_arch::{DatapathBuilder, OpuKind};
    use dspcc_dfg::{parse, Dfg};
    use dspcc_isa::{artificial_resources, CoverStrategy, InstructionSet};

    /// Intermediate-style core: two ALUs with dedicated RFs and buses.
    fn unmerged_core() -> Datapath {
        DatapathBuilder::new()
            .register_file("rf_a1_x", 8)
            .register_file("rf_a1_y", 8)
            .register_file("rf_a2_x", 8)
            .register_file("rf_a2_y", 8)
            .register_file("rf_out", 4)
            .opu(OpuKind::Input, "ipb", &[("read", 1)])
            .output("ipb", "bus_ipb")
            .opu(OpuKind::Output, "opb", &[("write", 1)])
            .inputs("opb", &["rf_out"])
            .opu(OpuKind::Alu, "alu_1", &[("add", 1), ("pass", 1)])
            .inputs("alu_1", &["rf_a1_x", "rf_a1_y"])
            .output("alu_1", "bus_alu_1")
            .opu(OpuKind::Alu, "alu_2", &[("add", 1), ("pass", 1)])
            .inputs("alu_2", &["rf_a2_x", "rf_a2_y"])
            .output("alu_2", "bus_alu_2")
            .write_port("rf_a1_x", &["bus_ipb", "bus_alu_1", "bus_alu_2"])
            .write_port("rf_a1_y", &["bus_ipb", "bus_alu_1", "bus_alu_2"])
            .write_port("rf_a2_x", &["bus_ipb", "bus_alu_1", "bus_alu_2"])
            .write_port("rf_a2_y", &["bus_ipb", "bus_alu_1", "bus_alu_2"])
            .write_port("rf_out", &["bus_alu_1", "bus_alu_2"])
            .build()
            .unwrap()
    }

    fn lowered() -> (Lowering, Datapath) {
        let dp = unmerged_core();
        let dfg =
            Dfg::build(&parse("input u; output y; y = add(add(u, u), pass(u));").unwrap()).unwrap();
        let l = lower(&dfg, &dp, &LowerOptions::default()).unwrap();
        (l, dp)
    }

    #[test]
    fn merge_renames_rt_resources() {
        let (mut l, dp) = lowered();
        let mut plan = MergePlan::new();
        plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
        let merged = apply_merge_plan(&mut l, &dp, &plan).unwrap();
        assert!(merged.bus("bus_alu").is_some());
        for (_, rt) in l.program.rts() {
            assert!(rt.usage_of("bus_alu_1").is_none());
            assert!(rt.usage_of("bus_alu_2").is_none());
        }
        // At least one RT drives the merged bus.
        assert!(l
            .program
            .rts()
            .any(|(_, rt)| rt.usage_of("bus_alu").is_some()));
    }

    #[test]
    fn merge_rewrites_mux_arguments() {
        let (mut l, dp) = lowered();
        let mut plan = MergePlan::new();
        plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
        apply_merge_plan(&mut l, &dp, &plan).unwrap();
        for (_, rt) in l.program.rts() {
            for (res, usage) in rt.usages() {
                if res.name().starts_with("mux_") {
                    if let Usage::Apply { args, .. } = usage {
                        for a in args {
                            assert_ne!(a, "bus_alu_1", "stale bus name in {rt}");
                            assert_ne!(a, "bus_alu_2", "stale bus name in {rt}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rf_merge_rewrites_register_references() {
        let (mut l, dp) = lowered();
        let mut plan = MergePlan::new();
        plan.merge_rfs(&["rf_a1_x", "rf_a2_x"], "rf_x");
        let merged = apply_merge_plan(&mut l, &dp, &plan).unwrap();
        assert_eq!(merged.register_file("rf_x").unwrap().size(), 16);
        for (_, rt) in l.program.rts() {
            for reg in rt.dests().iter().chain(rt.operands()) {
                assert_ne!(reg.rf().name(), "rf_a1_x");
                assert_ne!(reg.rf().name(), "rf_a2_x");
            }
        }
    }

    #[test]
    fn merged_schedule_still_valid_but_longer_or_equal() {
        use dspcc_ir::Program;
        use dspcc_sched::deps::DependenceGraph;
        use dspcc_sched::{list::Priority, schedule, ConflictMatrix, Fuel, Schedule, Scheduler};

        let list = |p: &Program, deps: &DependenceGraph| -> Schedule {
            let matrix = ConflictMatrix::build(p);
            let list = Scheduler::List {
                priority: Priority::Slack,
            };
            let mut fuel = Fuel::unlimited();
            schedule(p, deps, &matrix, list, None, &mut fuel, None)
                .unwrap()
                .schedule
        };
        let (l_before, dp) = lowered();
        let deps_before =
            DependenceGraph::build_with_edges(&l_before.program, &l_before.sequence_edges).unwrap();
        let before = list(&l_before.program, &deps_before);
        before.verify(&l_before.program, &deps_before).unwrap();

        let (mut l_after, _) = lowered();
        let mut plan = MergePlan::new();
        plan.merge_buses(&["bus_alu_1", "bus_alu_2"], "bus_alu");
        apply_merge_plan(&mut l_after, &dp, &plan).unwrap();
        let deps_after =
            DependenceGraph::build_with_edges(&l_after.program, &l_after.sequence_edges).unwrap();
        let after = list(&l_after.program, &deps_after);
        after.verify(&l_after.program, &deps_after).unwrap();
        assert!(
            after.length() >= before.length(),
            "sharing cannot speed things up: {} vs {}",
            after.length(),
            before.length()
        );
    }

    #[test]
    fn apply_instruction_set_returns_added_names() {
        let (mut l, dp) = lowered();
        let classification = Classification::identify(&dp);
        let _ = dp;
        // Force alu_1-add and alu_2-add into conflicting classes.
        let a1 = classification
            .classes()
            .iter()
            .position(|c| c.opu().name() == "alu_1" && c.matches("alu_1", "add"))
            .unwrap();
        let a2 = classification
            .classes()
            .iter()
            .position(|c| c.opu().name() == "alu_2" && c.matches("alu_2", "add"))
            .unwrap();
        let n = classification.len();
        // Everything compatible except a1–a2.
        let all_but: Vec<usize> = (0..n).filter(|&c| c != a2).collect();
        let rest: Vec<usize> = (0..n).filter(|&c| c != a1).collect();
        let iset = InstructionSet::closure(n, &[all_but, rest]);
        let ars = artificial_resources(&iset, &classification, CoverStrategy::GreedyMaximal);
        assert!(!ars.is_empty());
        let names = apply_instruction_set(&mut l.program, &classification, &ars);
        assert_eq!(names.len(), ars.len());
        // Some RT now carries the artificial resource.
        assert!(l
            .program
            .rts()
            .any(|(_, rt)| names.iter().any(|n| rt.usage_of(n).is_some())));
    }

    #[test]
    fn invalid_plan_propagates() {
        let (mut l, dp) = lowered();
        let mut plan = MergePlan::new();
        plan.merge_rfs(&["rf_ghost"], "rf_x");
        let err = apply_merge_plan(&mut l, &dp, &plan).unwrap_err();
        assert!(matches!(err, ModifyError::Merge(_)));
        assert!(err.to_string().contains("rf_ghost"));
    }
}
