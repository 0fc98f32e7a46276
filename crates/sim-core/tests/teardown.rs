//! A finished simulation is freed: every parked future owns a `Sim`,
//! and so the core that owns the future, and `drop(sim)` must break
//! that cycle.

use std::rc::Rc;

use sim_core::sync::Semaphore;
use sim_core::{Sim, SimDuration, SimTime, Simulation};

/// Spawns one more sentinel holder when its task is torn down.
struct SpawnOnDrop(Sim, Rc<()>);

impl Drop for SpawnOnDrop {
    fn drop(&mut self) {
        let held = self.1.clone();
        self.0.spawn(async move { drop(held) });
    }
}

#[test]
fn dropping_the_simulation_frees_its_parked_tasks() {
    let mut sim = Simulation::new(1);
    let sentinel = Rc::new(());
    let (h, held) = (sim.handle(), sentinel.clone());
    sim.spawn(async move {
        let _guard = SpawnOnDrop(h, held);
        Semaphore::new(0).acquire().await.forget();
    });
    let (h, held) = (sim.handle(), sentinel.clone());
    sim.spawn(async move {
        h.sleep(SimDuration::from_secs(1000)).await;
        drop(held);
    });
    sim.run_until(SimTime::from_nanos(5));
    assert_eq!(Rc::strong_count(&sentinel), 3, "both tasks parked");
    drop(sim);
    assert_eq!(Rc::strong_count(&sentinel), 1, "tasks outlived drop(sim)");
}
