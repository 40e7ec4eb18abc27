//! Persistent `CALL`/`RET` on buffered regions: exact persist counts and
//! exhaustive crash-point enumeration under the survivor lottery.
//!
//! A buffered region keeps or loses each dirty cache line as a whole at
//! a crash, which is what lets a `RET` whose return flag, value and end
//! marker share a line persist all three with one round-trip. These
//! tests check both paths of that protocol for every stack layout:
//!
//! * a root call returning a value — its caller is the dummy frame at a
//!   line-aligned stack base, so the `RET` takes the one-line path;
//! * a nested call whose caller's arguments push flag..marker across a
//!   line boundary, so the `RET` takes the ordered path.
//!
//! Every crash point is replayed at survival probabilities 0, ½ and 1.
//! Recovery must converge, the effect must apply exactly once, and the
//! root's completion record must land in the dummy frame's slot.

use pstack_core::{
    ChildStatus, FixedStack, FunctionRegistry, ListStack, PContext, PError, PersistentStack,
    RecoveryMode, ReturnSlot, Runtime, RuntimeConfig, StackKind, Task, VecStack,
};
use pstack_heap::PHeap;
use pstack_nvram::{FailPlan, PMem, PMemBuilder, POffset};

const KINDS: [StackKind; 3] = [StackKind::Fixed, StackKind::Vec, StackKind::List];
const SURVIVAL: [f64; 3] = [0.0, 0.5, 1.0];

/// Increments a persistent counter exactly once per task slot.
const LEAF: u64 = 0x1EAF;
/// Calls [`LEAF`] as a nested persistent call and returns its value.
const NEST: u64 = 0x4E57;

/// Byte offset of the dummy frame inside its cache line: the fixed and
/// resizable-array stacks start it on the line, the list stack after
/// its 16-byte block header.
fn dummy_line_offset(kind: StackKind) -> u64 {
    match kind {
        StackKind::Fixed | StackKind::Vec => 0,
        StackKind::List => 16,
    }
}

/// Argument length of a frame pushed right above the dummy frame that
/// makes its return flag and end marker fall into different lines: the
/// frame starts 23 bytes after the dummy (an empty frame), its flag is
/// 13 + args bytes in and its marker 9 bytes after the flag.
fn straddling_args_len(kind: StackKind) -> usize {
    let flag_in_line = |args: u64| (dummy_line_offset(kind) + 23 + 13 + args) % 64;
    (8..72)
        .find(|&a| flag_in_line(a) > 64 - 10)
        .expect("some length straddles") as usize
}

fn read_u64(args: &[u8]) -> u64 {
    u64::from_le_bytes(args[..8].try_into().unwrap())
}

/// The counter lives at the user root and each slot's evidence word in
/// a line of its own after it.
fn leaf_cells(ctx: &PContext<'_>, slot: u64) -> (POffset, POffset) {
    let root = ctx.user_root();
    (root, root + (64 + 64 * slot))
}

/// Shared by call and recover: the evidence word records the value this
/// slot's increment produces before the counter moves, so a replay
/// finishes the increment instead of repeating it.
fn leaf(ctx: &mut PContext<'_>, args: &[u8]) -> Result<Option<[u8; 8]>, PError> {
    let (counter, evidence) = leaf_cells(ctx, read_u64(args));
    let mut target = ctx.pmem.read_u64(evidence)?;
    if target == 0 {
        target = ctx.pmem.read_u64(counter)? + 1;
        ctx.pmem.write_u64(evidence, target)?;
        ctx.pmem.flush(evidence, 8)?;
    }
    if ctx.pmem.read_u64(counter)? < target {
        ctx.pmem.write_u64(counter, target)?;
        ctx.pmem.flush(counter, 8)?;
    }
    Ok(Some(target.to_le_bytes()))
}

fn registry() -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    reg.register_pair(LEAF, leaf, leaf).unwrap();
    reg.register_pair(
        NEST,
        |c, args| c.call(LEAF, &args[..8]),
        |c, args| match c.child_status()? {
            ChildStatus::Completed(v) => Ok(v),
            // A child that was pushed is either still on the stack —
            // recovered, and its completion recorded, before this dual
            // runs — or popped with its completion durable. So "not
            // completed" here means the child never ran.
            ChildStatus::NotCompleted => {
                let (_, evidence) = leaf_cells(c, read_u64(args));
                if c.pmem.read_u64(evidence)? != 0 {
                    return Err(PError::Task("child popped without its completion".into()));
                }
                c.call(LEAF, &args[..8])
            }
        },
    )
    .unwrap();
    reg
}

/// The task under test: a root `LEAF` call, or a root `NEST` call with
/// arguments padded so its own return slot straddles a line.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Root,
    Nested,
}

fn task(kind: StackKind, shape: Shape) -> Task {
    let mut args = 0u64.to_le_bytes().to_vec();
    match shape {
        Shape::Root => Task::new(LEAF, args),
        Shape::Nested => {
            args.resize(straddling_args_len(kind), 0xA5);
            Task::new(NEST, args)
        }
    }
}

fn format(kind: StackKind) -> (PMem, Runtime) {
    let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    let rt = Runtime::format(
        pmem.clone(),
        RuntimeConfig::new(1).stack_kind(kind).stack_capacity(4096),
        &registry(),
    )
    .unwrap();
    (pmem, rt)
}

fn counter(pmem: &PMem, rt: &Runtime) -> u64 {
    pmem.read_u64(rt.user_root().unwrap()).unwrap()
}

/// After recovery the dummy slot says whether the task completed; if it
/// did, the effect and the answer are the single increment, and if it
/// did not, nothing happened and a resubmission completes it.
fn verify(kind: StackKind, shape: Shape, pmem: PMem, at: String) {
    let rt = Runtime::open(pmem.clone(), &registry()).unwrap();
    rt.recover(RecoveryMode::Parallel)
        .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
    let stack = rt.open_stack(0).unwrap();
    assert_eq!(stack.depth(), 0, "{at}: recovery left frames");
    stack.check_consistency().unwrap();
    match stack.ret(0).unwrap() {
        ReturnSlot::Value(v) => {
            assert_eq!(u64::from_le_bytes(v), 1, "{at}: answer");
            assert_eq!(counter(&pmem, &rt), 1, "{at}: effect applied twice or lost");
        }
        ReturnSlot::Empty => {
            assert_eq!(
                counter(&pmem, &rt),
                0,
                "{at}: effect without a completed call"
            );
            let report = rt.run_tasks(vec![task(kind, shape)]);
            assert_eq!(report.completed, 1, "{at}: resubmission");
            assert_eq!(
                rt.open_stack(0).unwrap().ret(0).unwrap(),
                ReturnSlot::Value(1u64.to_le_bytes()),
                "{at}: dummy slot after resubmission"
            );
            assert_eq!(counter(&pmem, &rt), 1, "{at}: resubmitted effect");
        }
        ReturnSlot::Unit => panic!("{at}: the task returns a value, not unit"),
    }
}

fn enumerate(kind: StackKind, shape: Shape) {
    // Clean run: the dummy slot holds the completion record.
    let (pmem, rt) = format(kind);
    let e0 = pmem.events();
    assert_eq!(rt.run_tasks(vec![task(kind, shape)]).completed, 1);
    let total = pmem.events() - e0;
    assert_eq!(
        rt.open_stack(0).unwrap().ret(0).unwrap(),
        ReturnSlot::Value(1u64.to_le_bytes()),
        "{kind} {shape:?}: clean run's completion record"
    );
    assert_eq!(counter(&pmem, &rt), 1);

    for k in 0..total {
        for prob in SURVIVAL {
            let (pmem, rt) = format(kind);
            pmem.arm_failpoint(FailPlan::after_events(k).with_survivors(k ^ 0x5EED, prob));
            let report = rt.run_tasks(vec![task(kind, shape)]);
            assert!(
                report.crashed,
                "{kind} {shape:?}: crash at event {k} missed"
            );
            let at = format!("{kind} {shape:?} crash at event {k}/{total}, survival {prob}");
            verify(kind, shape, pmem.reopen().unwrap(), at);
        }
    }
}

#[test]
fn root_value_call_survives_every_crash_point() {
    for kind in KINDS {
        enumerate(kind, Shape::Root);
    }
}

#[test]
fn straddling_nested_call_survives_every_crash_point() {
    for kind in KINDS {
        enumerate(kind, Shape::Nested);
    }
}

/// A bare stack of `kind` on a buffered region, with a heap for the
/// unbounded layouts. The resizable array never shrinks here, so the
/// counts below are the protocol's alone, not a relocation's.
fn bare(kind: StackKind) -> (PMem, PHeap, Box<dyn PersistentStack>) {
    let pmem = PMemBuilder::new().len(1 << 18).build_in_memory();
    let heap = PHeap::format(pmem.clone(), POffset::new(1 << 16), 1 << 16).unwrap();
    let stack: Box<dyn PersistentStack> = match kind {
        StackKind::Fixed => {
            Box::new(FixedStack::format(pmem.clone(), POffset::new(0), 4096).unwrap())
        }
        StackKind::Vec => {
            let mut s = VecStack::format(pmem.clone(), heap.clone(), POffset::new(0), 256).unwrap();
            s.set_shrink(false);
            Box::new(s)
        }
        StackKind::List => {
            Box::new(ListStack::format(pmem.clone(), heap.clone(), POffset::new(0), 256).unwrap())
        }
    };
    (pmem, heap, stack)
}

fn persists(pmem: &PMem) -> u64 {
    pmem.stats().snapshot().persists
}

/// `CALL` is 2 round-trips (frame with the cleared flag, marker flip),
/// a one-line `RET` is 1: a root call costs 3 whether it returns a value
/// or unit.
#[test]
fn root_call_costs_three_persists() {
    for kind in KINDS {
        for ret in [Some(42u64.to_le_bytes()), None] {
            let (pmem, heap, mut stack) = bare(kind);
            let mut reg = FunctionRegistry::new();
            reg.register_pair(1, move |_c, _| Ok(ret), |_c, _| Ok(None))
                .unwrap();
            let mut ctx = PContext::new(
                pmem.clone(),
                heap,
                &reg,
                stack.as_mut(),
                0,
                POffset::new(1 << 17),
            );
            let before = persists(&pmem);
            assert_eq!(ctx.call(1, &7u64.to_le_bytes()).unwrap(), ret);
            assert_eq!(persists(&pmem) - before, 3, "{kind}, returning {ret:?}");
            let expect = ret.map_or(ReturnSlot::Unit, ReturnSlot::Value);
            assert_eq!(stack.ret(0).unwrap(), expect, "{kind}: dummy slot");
        }
    }
}

/// When the caller's flag..marker straddle a line the `RET` falls back
/// to value, flag and flip persisted in order: the nested call costs
/// 2 + 3 round-trips, and its root caller still 3.
#[test]
fn straddling_nested_call_costs_the_ordered_count() {
    for kind in KINDS {
        let (pmem, heap, mut stack) = bare(kind);
        let mut reg = FunctionRegistry::new();
        reg.register_pair(2, |_c, _| Ok(Some(9u64.to_le_bytes())), |_c, _| Ok(None))
            .unwrap();
        reg.register_pair(
            1,
            |c, _| {
                let before = persists(&c.pmem);
                let v = c.call(2, &[])?;
                assert_eq!(persists(&c.pmem) - before, 5, "nested call");
                Ok(v)
            },
            |_c, _| Ok(None),
        )
        .unwrap();
        let args = vec![0u8; straddling_args_len(kind)];
        let mut ctx = PContext::new(
            pmem.clone(),
            heap,
            &reg,
            stack.as_mut(),
            0,
            POffset::new(1 << 17),
        );
        let before = persists(&pmem);
        assert_eq!(ctx.call(1, &args).unwrap(), Some(9u64.to_le_bytes()));
        assert_eq!(persists(&pmem) - before, 3 + 5, "{kind}: root + nested");
        assert_eq!(stack.ret(0).unwrap(), ReturnSlot::Value(9u64.to_le_bytes()));
    }
}
