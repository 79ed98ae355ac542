//! DVFS adaptation demo (§5.2): the Denver cluster of a simulated TX2
//! alternates between 2035 MHz and 345 MHz every 5 s. Watch the PTT
//! track the change and the scheduler migrate critical tasks.
//!
//! ```sh
//! cargo run --release --example dvfs_adaptation
//! ```

use das::core::{Policy, TaskTypeId};
use das::dag::generators;
use das::sim::{Environment, Modifier, SimConfig, Simulator};
use das::topology::{ClusterId, CoreId, Topology};
use das::workloads::cost::PaperCost;
use std::sync::Arc;

fn main() {
    let topo = Arc::new(Topology::tx2());
    println!("DVFS square wave on the Denver cluster: 2035 MHz <-> 345 MHz, 5 s + 5 s\n");

    for policy in [Policy::Rws, Policy::Fa, Policy::DamC, Policy::DamP] {
        let mut sim = Simulator::new(
            SimConfig::new(Arc::clone(&topo), policy).cost(Arc::new(PaperCost::new())),
        );
        sim.set_env(
            Environment::interference_free(Arc::clone(&topo)).and(Modifier::tx2_dvfs(ClusterId(0))),
        );
        let dag = generators::layered(TaskTypeId(0), 3, 4000);
        let st = sim.run(&dag).expect("sim run");
        println!(
            "{:<8} throughput {:>6.0} tasks/s over {:>5.1}s",
            policy.name(),
            st.throughput(),
            st.makespan
        );

        if policy == Policy::DamC {
            // Show what the model learned about the two clusters.
            let ptt = sim.scheduler().ptts().table(TaskTypeId(0));
            let denver = ptt
                .predict(CoreId(1), 1)
                .expect("DAM-C trained the Denver entry");
            let a57 = ptt
                .predict(CoreId(2), 1)
                .expect("DAM-C trained the A57 entry");
            println!(
                "         PTT after the run: denver w1 = {denver:.2e}s, a57 w1 = {a57:.2e}s \
                 (averages across high/low phases)"
            );
        }
    }

    println!(
        "\nReading: fixed-asymmetry FA keeps critical tasks on Denver even \
         in the 345 MHz phase;\nthe DAM schedulers re-learn each phase within \
         a few observations (1:4 weighted update)\nand shift work to the A57 \
         cluster while Denver is slow — Fig. 7 of the paper."
    );
}
