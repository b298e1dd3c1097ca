//! Hardware cost of PowerChop's structures (paper §IV-B4): the PVT is 16
//! entries totalling 264 bytes; the HTB is 128 entries and 1 KiB, costing
//! 0.027 W and 0.008 mm² per CACTI at 32 nm.

use powerchop::{HotTranslationBuffer, PolicyVectorTable};
use powerchop_bench::{banner, write_csv};
use powerchop_power::SramCost;

fn main() {
    banner(
        "Hardware cost — HTB and PVT (paper §IV-B4)",
        "PVT 264 B; HTB 1 KiB, 0.027 W, 0.008 mm²",
    );
    let htb = HotTranslationBuffer::paper_default();
    let pvt = PolicyVectorTable::paper_default();
    let htb_cost = SramCost::fully_associative(htb.storage_bytes());
    let pvt_cost = SramCost::fully_associative(pvt.storage_bytes());
    println!(
        "{:<6} {:>8} {:>10} {:>10}",
        "unit", "bytes", "power(W)", "area(mm2)"
    );
    println!(
        "{:<6} {:>8} {:>10.4} {:>10.4}",
        "HTB", htb_cost.bytes, htb_cost.power_w, htb_cost.area_mm2
    );
    println!(
        "{:<6} {:>8} {:>10.4} {:>10.4}",
        "PVT", pvt_cost.bytes, pvt_cost.power_w, pvt_cost.area_mm2
    );
    write_csv(
        "tab_hw_cost",
        "unit,bytes,power_w,area_mm2",
        &[
            format!(
                "HTB,{},{:.5},{:.5}",
                htb_cost.bytes, htb_cost.power_w, htb_cost.area_mm2
            ),
            format!(
                "PVT,{},{:.5},{:.5}",
                pvt_cost.bytes, pvt_cost.power_w, pvt_cost.area_mm2
            ),
        ],
    );
    assert_eq!(htb_cost.bytes, 1024, "HTB is 1 KiB (paper)");
    assert_eq!(pvt_cost.bytes, 264, "PVT is 264 bytes (paper)");
    assert!((htb_cost.power_w - 0.027).abs() < 1e-6);
    assert!((htb_cost.area_mm2 - 0.008).abs() < 1e-6);
    println!("\nmatches the paper's CACTI-derived estimates");
}
