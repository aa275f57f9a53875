//! Experiment E6 — the §6 claim: "For newer machines we can achieve the
//! full communication bandwidth of Gigabit Ethernet with a CPU utilization
//! of just 30% versus 100% with the original stack."
//!
//! `--json` emits one JSON object per row in the shared format.

use zc_bench::json_flag;
use zc_json::{Layout, Writer};
use zc_simnet::{cpu_utilization, predict, LinkSpec, MachineSpec, OrbMode, Scenario, SocketMode};

fn row(machine: MachineSpec, socket: SocketMode, orb: OrbMode, json: bool) {
    let scn = Scenario {
        machine,
        link: LinkSpec::gigabit_ethernet(),
        socket,
        orb,
        block_bytes: 16 << 20,
    };
    let mbit = predict(&scn);
    let (s, r) = cpu_utilization(&scn);
    if json {
        let mut w = Writer::new();
        w.begin_object(Layout::Compact)
            .field_str("machine", machine.name)
            .field_str("config", &scn.label())
            .field("modeled_mbit_s", format_args!("{mbit:.1}"))
            .field("sender_cpu", format_args!("{s:.3}"))
            .field("receiver_cpu", format_args!("{r:.3}"))
            .end();
        println!("{}", w.finish());
    } else {
        println!(
            "  {:<22} {:>8.0} Mbit/s   sender {:>5.1} %   receiver {:>5.1} %",
            scn.label(),
            mbit,
            s * 100.0,
            r * 100.0
        );
    }
}

fn main() {
    let json = json_flag();
    if !json {
        println!("## E6 — CPU utilization at 16 MiB blocks over GbE\n");
    }
    for machine in [MachineSpec::pentium_ii_400(), MachineSpec::modern_2003()] {
        if !json {
            println!("{}:", machine.name);
        }
        row(machine, SocketMode::Copying, OrbMode::None, json);
        row(machine, SocketMode::ZeroCopy, OrbMode::None, json);
        row(machine, SocketMode::Copying, OrbMode::Standard, json);
        row(machine, SocketMode::ZeroCopy, OrbMode::ZeroCopyOrb, json);
        if !json {
            println!();
        }
    }
    if !json {
        println!(
            "paper claim: on the newer machine the zero-copy stack reaches full GbE\n\
             bandwidth at ≈ 30 % CPU; the conventional stack needs ≈ 100 %."
        );
    }
}
