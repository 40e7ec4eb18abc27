//! The served system the integration tests drive: buffered shard
//! regions and a control region (PSan on), a sharded store with one
//! request table per shard, the serve function registered on a
//! one-worker `StripedRuntime`, and the `ServerCore` front end.

// Each test binary uses its own subset of the fixture.
#![allow(dead_code)]

use pstack_core::{FunctionRegistry, PError, RuntimeConfig, StripedRuntime};
use pstack_kv::{KvRequestTable, KvVariant, ShardedKvStore};
use pstack_nvram::{PMem, PMemBuilder, PMemStripe, POffset};
use pstack_server::{KvServeFunction, ServerCore, KV_SERVE_FUNC_ID};

/// Where each shard region keeps its request-table base (inside the
/// 64-byte shard root, past the store's own words).
const TABLE_ROOT_OFF: u64 = 48;
const TABLE_CAP: u32 = 8;

/// One boot of the served system.
pub struct Served {
    pub control: PMem,
    pub stripe: PMemStripe,
    pub rt: StripedRuntime,
    pub core: ServerCore,
}

fn registry(store: &ShardedKvStore, tables: &[KvRequestTable]) -> FunctionRegistry {
    let mut registry = FunctionRegistry::new();
    registry
        .register(
            KV_SERVE_FUNC_ID,
            KvServeFunction::new(store.clone(), tables.to_vec()).into_arc(),
        )
        .expect("fresh registry");
    registry
}

fn open_tables(stripe: &PMemStripe) -> Result<Vec<KvRequestTable>, PError> {
    (0..stripe.len())
        .map(|s| {
            let region = stripe.region(s);
            let base = region.read_u64(POffset::new(TABLE_ROOT_OFF))?;
            KvRequestTable::open(region.clone(), POffset::new(base))
        })
        .collect()
}

/// Formats a `shards`-shard system.
pub fn format(shards: usize) -> Served {
    let stripe = PMemBuilder::new()
        .len(1 << 20)
        .psan(true)
        .build_striped(shards);
    let store = ShardedKvStore::format(stripe.regions(), 16, 256, KvVariant::Nsrl).unwrap();
    let tables: Vec<KvRequestTable> = (0..shards)
        .map(|s| {
            let region = stripe.region(s);
            let table = KvRequestTable::format(region.clone(), store.heap(s), TABLE_CAP).unwrap();
            region
                .write_u64(POffset::new(TABLE_ROOT_OFF), table.base().get())
                .unwrap();
            region.flush(POffset::new(TABLE_ROOT_OFF), 8).unwrap();
            table
        })
        .collect();
    let control = PMemBuilder::new().len(1 << 20).psan(true).build_in_memory();
    let rt = StripedRuntime::format(
        control.clone(),
        stripe.clone(),
        RuntimeConfig::new(1).stack_capacity(8 * 1024),
        &registry(&store, &tables),
    )
    .unwrap();
    let core = ServerCore::new(KvServeFunction::new(store, tables), 64, 16);
    Served {
        control,
        stripe,
        rt,
        core,
    }
}

/// Reopens a crashed system: every region reopened, store, tables and
/// runtime re-attached over the new handles. Recovery (frame replay)
/// is the caller's next step.
pub fn reboot(crashed: &Served) -> Served {
    let next = crashed
        .rt
        .reopen_all_with(|_, stripe| {
            let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl)?;
            Ok(registry(&store, &open_tables(stripe)?))
        })
        .unwrap();
    let (control, stripe) = (next.control().clone(), next.stripe().clone());
    drop(next);
    let store = ShardedKvStore::open(stripe.regions(), KvVariant::Nsrl).unwrap();
    let tables = open_tables(&stripe).unwrap();
    let rt =
        StripedRuntime::open(control.clone(), stripe.clone(), &registry(&store, &tables)).unwrap();
    let core = ServerCore::new(KvServeFunction::new(store, tables), 64, 16);
    Served {
        control,
        stripe,
        rt,
        core,
    }
}
