//! Unit tests of error injection (paper Sec. 4.2, Fig. 7) as the pipeline
//! runs it: an `Injection` set on a `Searcher3` over a classic KD-tree.
//! The property versions over every exact backend are
//! `kth_nn_is_monotone_in_k` and `shell_is_ball_minus_inner_ball` in
//! `tests/proptests.rs`.

mod tests {
    use crate::search::{Injection, Searcher3};
    use tigris_geom::Vec3;

    fn line_points(n: usize) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect()
    }

    fn shell(s: &mut Searcher3, query: Vec3, r: f64, inner_frac: f64, outer_frac: f64) -> Vec<f64> {
        s.set_injection(Some(Injection::RadiusShell { inner_frac, outer_frac }));
        let res = s.radius(query, r);
        res.iter().map(|n| s.points()[n.index].x).collect()
    }

    #[test]
    fn kth_nn_walks_outward() {
        let mut s = Searcher3::classic(&line_points(10));
        for k in 1..=10 {
            s.set_injection(Some(Injection::NnKth(k)));
            let n = s.nn(Vec3::new(-0.5, 0.0, 0.0)).unwrap();
            assert_eq!(n.index, k - 1, "k = {k}");
        }
    }

    #[test]
    fn kth_nn_beyond_size_is_none() {
        let mut s = Searcher3::classic(&line_points(3));
        s.set_injection(Some(Injection::NnKth(4)));
        assert!(s.nn(Vec3::ZERO).is_none());
        s.set_injection(Some(Injection::NnKth(3)));
        assert!(s.nn(Vec3::ZERO).is_some());
    }

    #[test]
    fn shell_includes_only_annulus() {
        // Radius 4 → shell <3, 6>.
        let mut s = Searcher3::classic(&line_points(20));
        assert_eq!(shell(&mut s, Vec3::ZERO, 4.0, 0.75, 1.5), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn shell_with_r1_zero_is_plain_radius() {
        let mut s = Searcher3::classic(&line_points(20));
        s.set_injection(Some(Injection::RadiusShell { inner_frac: 0.0, outer_frac: 1.0 }));
        let shell = s.radius(Vec3::ZERO, 4.0);
        s.set_injection(None);
        assert_eq!(shell, s.radius(Vec3::ZERO, 4.0));
    }

    #[test]
    fn shell_boundary_inclusive() {
        // Radius 2 → shell <2, 2>.
        let mut s = Searcher3::classic(&line_points(10));
        assert_eq!(shell(&mut s, Vec3::ZERO, 2.0, 1.0, 1.0), vec![2.0]);
    }

    #[test]
    fn shell_results_sorted() {
        // Radius 2 → shell <2, 9>.
        let mut s = Searcher3::classic(&line_points(30));
        s.set_injection(Some(Injection::RadiusShell { inner_frac: 1.0, outer_frac: 4.5 }));
        let res = s.radius(Vec3::new(14.3, 0.0, 0.0), 2.0);
        for w in res.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(!res.is_empty());
    }
}
