//! Table 1: communication vs computation energy across technology nodes.

use amnesiac_energy::TechnologyModel;
use amnesiac_telemetry::Json;

use crate::report::Table;

/// Renders the paper's Table 1 from the technology model.
pub fn render() -> String {
    let model = TechnologyModel::paper();
    let points = model.table1();
    let mut t = Table::new(&["Technology Node", "40nm", "10nm (HP)", "10nm (LP)"]);
    t.row(vec![
        "Operating Voltage".into(),
        format!("{:.2}V", points[0].voltage),
        format!("{:.2}V", points[1].voltage),
        format!("{:.2}V", points[2].voltage),
    ]);
    t.row(vec![
        "64-bit SRAM load / 64-bit FMA".into(),
        format!("{:.2}", points[0].ratio),
        format!("{:.2}", points[1].ratio),
        format!("{:.2}", points[2].ratio),
    ]);
    format!(
        "Table 1: Communication vs. computation energy (paper: 1.55 / 5.75 / 5.77)\n\n{}",
        t.render()
    )
}

/// The twin of [`render`]: voltage and load/FMA ratio per node.
pub fn json() -> Json {
    let model = TechnologyModel::paper();
    let labels = ["40nm", "10nm_hp", "10nm_lp"];
    let mut nodes = Json::obj();
    for (label, point) in labels.iter().zip(model.table1()) {
        nodes.set(
            label,
            Json::obj()
                .with("voltage_v", point.voltage)
                .with("load_over_fma", point.ratio),
        );
    }
    Json::obj().with("artifact", "table1").with("nodes", nodes)
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_paper_ratios() {
        let text = super::render();
        assert!(text.contains("1.55"));
        assert!(text.contains("5.75"));
        assert!(text.contains("5.77"));
    }
}
