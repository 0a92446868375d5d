//! Regenerates **Figure 5**: an illustration of the decision boundaries
//! learned by the original SVM vs the Weighted SVM on a 2-D dataset whose
//! negative class is contaminated with mislabeled benign points.
//!
//! Prints an ASCII rendering of both boundaries plus the misclassification
//! counts on the true labels, showing the original SVM bending around the
//! mislabeled points while the weighted SVM recovers the clean boundary.
//!
//! ```text
//! cargo run -p leaps-bench --release --bin fig5_boundary
//! ```

use leaps::etw::rng::SimRng;
use leaps::svm::data::{Sample, TrainSet};
use leaps::svm::kernel::Kernel;
use leaps::svm::smo::{train, SmoParams};
use leaps_bench::env_u64;

fn gaussian_pair(rng: &mut SimRng) -> (f64, f64) {
    // Box–Muller.
    let u1 = rng.f64().max(1e-12);
    let u2 = rng.f64();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

fn main() {
    leaps_bench::check_threads_env();
    let mut rng = SimRng::new(env_u64("LEAPS_SEED", 0x1ea5));
    let mut plain = Vec::new();
    let mut weighted = Vec::new();

    // Benign cluster around (0.3, 0.3), malicious around (0.7, 0.7).
    for _ in 0..60 {
        let (dx, dy) = gaussian_pair(&mut rng);
        let x = vec![0.3 + 0.07 * dx, 0.3 + 0.07 * dy];
        plain.push(Sample::new(x.clone(), 1.0, 1.0));
        weighted.push(Sample::new(x, 1.0, 1.0));

        let (dx, dy) = gaussian_pair(&mut rng);
        let x = vec![0.7 + 0.07 * dx, 0.7 + 0.07 * dy];
        plain.push(Sample::new(x.clone(), -1.0, 1.0));
        weighted.push(Sample::new(x, -1.0, 1.0));
    }
    // Mislabeled mixed points: actually benign, labeled malicious. The
    // CFG guidance would assign them near-zero maliciousness.
    for _ in 0..45 {
        let (dx, dy) = gaussian_pair(&mut rng);
        let x = vec![0.33 + 0.08 * dx, 0.33 + 0.08 * dy];
        plain.push(Sample::new(x.clone(), -1.0, 1.0));
        weighted.push(Sample::new(x, -1.0, 0.05));
    }

    let params = SmoParams { lambda: 10.0, ..Default::default() };
    let kernel = Kernel::Gaussian { sigma2: 0.05 };
    let svm = train(&TrainSet::new(plain).expect("valid set"), kernel, &params);
    let wsvm = train(&TrainSet::new(weighted).expect("valid set"), kernel, &params);

    println!("FIGURE 5: original SVM vs Weighted SVM decision regions");
    println!("('+' classified benign, '-' classified malicious; B/M = true cluster centers)\n");
    for (label, model) in [("SVM", &svm), ("WSVM", &wsvm)] {
        println!("{label}:");
        for row in 0..16 {
            let y = 1.0 - (row as f64 + 0.5) / 16.0;
            let mut line = String::from("  ");
            for col in 0..32 {
                let x = (col as f64 + 0.5) / 32.0;
                let near_b = (x - 0.3).abs() < 0.02 && (y - 0.3).abs() < 0.04;
                let near_m = (x - 0.7).abs() < 0.02 && (y - 0.7).abs() < 0.04;
                let c = if near_b {
                    'B'
                } else if near_m {
                    'M'
                } else if model.predict(&[x, y]) > 0.0 {
                    '+'
                } else {
                    '-'
                };
                line.push(c);
            }
            println!("{line}");
        }
        // True-label error on the benign cluster center region.
        let mut errors = 0;
        let mut probes = 0;
        let mut probe_rng = SimRng::new(7);
        for _ in 0..400 {
            let (dx, dy) = gaussian_pair(&mut probe_rng);
            let p = [0.3 + 0.07 * dx, 0.3 + 0.07 * dy];
            probes += 1;
            if model.predict(&p) != 1.0 {
                errors += 1;
            }
        }
        println!(
            "  benign-region error rate: {:.1}%  (support vectors: {})\n",
            100.0 * f64::from(errors) / f64::from(probes),
            model.support_vector_count()
        );
    }
}
