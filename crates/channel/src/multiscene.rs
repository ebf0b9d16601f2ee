//! A propagation scene with several backscatter tags.
//!
//! [`crate::scene::Scene`] models the paper's single-tag evaluation. For
//! the multi-tag inventory extension we need the physical superposition:
//! each tag contributes its own scattered path, so when two tags modulate
//! simultaneously the reader sees the *sum* of their differentials — which
//! is what garbles the single-tag decoder and forces singulation.
//!
//! ```text
//! H(f, ant, states) = direct(f, ant) + Σᵢ scatterᵢ(f, ant, stateᵢ)
//! ```
//!
//! As in [`crate::scene::Scene`], the static multipath responses are
//! evaluated once per offset list and enter the products in the uncached
//! order, so snapshots are bit-identical to a fresh evaluation.

use crate::backscatter::TagState;
use crate::fading::SlowFading;
use crate::geometry::{path_wall_loss_db, Point};
use crate::multipath::{Multipath, ResponseCache};
use crate::pathloss::{db_to_linear, dbm_to_mw};
use crate::scene::{ChannelSnapshot, SceneConfig};
use bs_dsp::{Complex, SimRng};

/// One tag's propagation state within a multi-tag scene.
#[derive(Debug, Clone)]
struct TagLinks {
    /// Helper→tag amplitude and multipath.
    ht_amp: f64,
    ht_mp: Multipath,
    /// Tag→reader per antenna.
    tr: Vec<(f64, Multipath)>,
}

/// A scene with one helper, one reader and N tags.
#[derive(Debug, Clone)]
pub struct MultiTagScene {
    cfg: SceneConfig,
    tag_positions: Vec<Point>,
    /// Helper→reader per antenna.
    hr: Vec<(f64, Multipath)>,
    tags: Vec<TagLinks>,
    fading_direct: SlowFading,
    fading_scatter: SlowFading,
    /// Responses of `hr[..]`, then per tag its `ht_mp` and `tr[..]`.
    responses: ResponseCache,
}

impl MultiTagScene {
    /// Builds the scene. `cfg.tag` is ignored; `tag_positions` provides
    /// the tags.
    ///
    /// # Panics
    /// Panics if there are no reader antennas or no tags.
    pub fn new(cfg: SceneConfig, tag_positions: Vec<Point>, rng: &SimRng) -> Self {
        assert!(cfg.reader_antennas > 0, "scene needs at least one reader antenna");
        assert!(!tag_positions.is_empty(), "multi-tag scene needs at least one tag");

        let make_link = |a: Point, b: Point, name: &str, idx: u64| -> (f64, Multipath) {
            let d = a.distance(b);
            let wall_db = path_wall_loss_db(&cfg.walls, a, b);
            let amp = cfg.pathloss.amplitude_gain(d) * db_to_linear(-wall_db).sqrt();
            let los = crate::geometry::line_of_sight(&cfg.walls, a, b);
            let mp_cfg = if los {
                cfg.multipath
            } else {
                cfg.multipath.nlos()
            };
            let mut link_rng = rng.stream(name).substream(idx);
            (amp, Multipath::generate(&mp_cfg, &mut link_rng))
        };

        let hr = (0..cfg.reader_antennas)
            .map(|a| make_link(cfg.helper, cfg.reader, "mt-helper-reader", a as u64))
            .collect();
        let tags = tag_positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| {
                let (ht_amp, ht_mp) =
                    make_link(cfg.helper, pos, "mt-helper-tag", i as u64);
                let tr = (0..cfg.reader_antennas)
                    .map(|a| {
                        make_link(
                            pos,
                            cfg.reader,
                            "mt-tag-reader",
                            (i * 16 + a) as u64,
                        )
                    })
                    .collect();
                TagLinks { ht_amp, ht_mp, tr }
            })
            .collect();

        let fading_direct = SlowFading::new(cfg.fading, rng.stream("mt-fading-direct"));
        let fading_scatter = SlowFading::new(cfg.fading, rng.stream("mt-fading-scatter"));

        MultiTagScene {
            cfg,
            tag_positions,
            hr,
            tags,
            fading_direct,
            fading_scatter,
            responses: ResponseCache::default(),
        }
    }

    /// Number of tags.
    pub fn tags(&self) -> usize {
        self.tags.len()
    }

    /// The tags' positions.
    pub fn tag_positions(&self) -> &[Point] {
        &self.tag_positions
    }

    /// The true channel at time `t_s` with each tag in its given state.
    ///
    /// # Panics
    /// Panics if `states.len()` differs from the number of tags.
    pub fn snapshot(
        &mut self,
        t_s: f64,
        states: &[TagState],
        freq_offsets_hz: &[f64],
    ) -> ChannelSnapshot {
        assert_eq!(states.len(), self.tags.len(), "one state per tag required");
        let g_direct = self.fading_direct.gain_at(t_s);
        let g_scatter = self.fading_scatter.gain_at(t_s);

        let n_ant = self.cfg.reader_antennas;
        let links = self.hr.iter().map(|(_, mp)| mp).chain(self.tags.iter().flat_map(|tag| {
            std::iter::once(&tag.ht_mp).chain(tag.tr.iter().map(|(_, mp)| mp))
        }));
        self.responses.refresh(freq_offsets_hz, links);
        let r = &self.responses;
        // Tag `i`'s helper→tag link index; its tag→reader links follow it.
        let tag_link = |i: usize| n_ant + i * (n_ant + 1);

        let h: Vec<Vec<Complex>> = (0..n_ant)
            .map(|ant| {
                let (hr_amp, _) = &self.hr[ant];
                (0..freq_offsets_hz.len())
                    .map(|k| {
                        let mut total = g_direct * r.link(ant)[k] * *hr_amp;
                        for (i, (tag, &state)) in self.tags.iter().zip(states).enumerate() {
                            let scatter_amp = self
                                .cfg
                                .rcs
                                .scatter_amplitude(state, self.cfg.pathloss.freq_hz);
                            let (tr_amp, _) = &tag.tr[ant];
                            total += g_scatter
                                * r.link(tag_link(i))[k]
                                * r.link(tag_link(i) + 1 + ant)[k]
                                * (tag.ht_amp * tr_amp * scatter_amp);
                        }
                        total
                    })
                    .collect()
            })
            .collect();

        ChannelSnapshot {
            h,
            tx_mw_per_subcarrier: dbm_to_mw(self.cfg.helper_tx_dbm)
                / self.cfg.occupied_subcarriers as f64,
            noise_mw_per_subcarrier: self.cfg.noise.noise_mw(self.cfg.subcarrier_bw_hz),
            tag_state: states[0],
            time_s: t_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fading::FadingConfig;

    fn offsets() -> Vec<f64> {
        (0..16).map(|i| (i as f64 - 7.5) * 1.25e6).collect()
    }

    fn cfg() -> SceneConfig {
        let mut c = SceneConfig::uplink(0.1);
        c.fading = FadingConfig::static_channel();
        c
    }

    #[test]
    fn single_tag_matches_scene_structure() {
        // A one-tag MultiTagScene behaves like Scene: distinct states give
        // a distinct channel, decaying with distance.
        let mut near = MultiTagScene::new(cfg(), vec![Point::new(-0.1, 0.0)], &SimRng::new(1));
        let f = offsets();
        let a = near.snapshot(0.0, &[TagState::Reflect], &f);
        let b = near.snapshot(0.0, &[TagState::Absorb], &f);
        let diff: f64 = a.h[0]
            .iter()
            .zip(&b.h[0])
            .map(|(x, y)| (*x - *y).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn two_tags_superpose() {
        // The two-tag differential equals the sum of the individual ones.
        let p1 = Point::new(-0.1, 0.0);
        let p2 = Point::new(-0.15, 0.1);
        let f = offsets();
        let rng = SimRng::new(2);

        let mut both = MultiTagScene::new(cfg(), vec![p1, p2], &rng);
        use TagState::{Absorb, Reflect};
        let base = both.snapshot(0.0, &[Absorb, Absorb], &f);
        let t1 = both.snapshot(0.0, &[Reflect, Absorb], &f);
        let t2 = both.snapshot(0.0, &[Absorb, Reflect], &f);
        let t12 = both.snapshot(0.0, &[Reflect, Reflect], &f);

        for k in 0..f.len() {
            let d1 = t1.h[0][k] - base.h[0][k];
            let d2 = t2.h[0][k] - base.h[0][k];
            let d12 = t12.h[0][k] - base.h[0][k];
            assert!(
                (d12 - (d1 + d2)).abs() < 1e-12,
                "superposition violated at subcarrier {k}"
            );
        }
    }

    #[test]
    fn closer_tag_dominates() {
        let near = Point::new(-0.05, 0.0);
        let far = Point::new(-1.5, 0.0);
        let f = offsets();
        let rng = SimRng::new(3);
        let mut scene = MultiTagScene::new(cfg(), vec![near, far], &rng);
        use TagState::{Absorb, Reflect};
        let base = scene.snapshot(0.0, &[Absorb, Absorb], &f);
        let d_near: f64 = {
            let s = scene.snapshot(0.0, &[Reflect, Absorb], &f);
            s.h[0].iter().zip(&base.h[0]).map(|(a, b)| (*a - *b).abs()).sum()
        };
        let d_far: f64 = {
            let s = scene.snapshot(0.0, &[Absorb, Reflect], &f);
            s.h[0].iter().zip(&base.h[0]).map(|(a, b)| (*a - *b).abs()).sum()
        };
        assert!(
            d_near > 5.0 * d_far,
            "near {d_near} should dominate far {d_far}"
        );
    }

    #[test]
    #[should_panic(expected = "one state per tag")]
    fn wrong_state_count_panics() {
        let mut s = MultiTagScene::new(cfg(), vec![Point::new(-0.1, 0.0)], &SimRng::new(4));
        s.snapshot(0.0, &[TagState::Reflect, TagState::Absorb], &offsets());
    }

    #[test]
    #[should_panic(expected = "at least one tag")]
    fn no_tags_panics() {
        MultiTagScene::new(cfg(), vec![], &SimRng::new(5));
    }

    #[test]
    fn cached_responses_follow_the_offset_list() {
        // Alternating offset lists must give, bit for bit, what a scene
        // that only ever saw one list gives.
        let narrow = offsets();
        let wide: Vec<f64> = narrow.iter().map(|f| f * 2.0).collect();
        let lists = [&narrow, &wide];
        let tags = vec![Point::new(-0.1, 0.0), Point::new(-0.2, 0.1)];
        let rng = SimRng::new(7);
        let mut mixed = MultiTagScene::new(cfg(), tags.clone(), &rng);
        let mut refs: Vec<MultiTagScene> = lists
            .iter()
            .map(|_| MultiTagScene::new(cfg(), tags.clone(), &rng))
            .collect();
        let bits = |s: &ChannelSnapshot| -> Vec<u64> {
            s.h.iter()
                .flatten()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        let states = [TagState::Reflect, TagState::Absorb];
        for (step, l) in [0, 1, 1, 0, 1].into_iter().enumerate() {
            let got = mixed.snapshot(0.0, &states, lists[l]);
            let want = refs[l].snapshot(0.0, &states, lists[l]);
            assert_eq!(bits(&got), bits(&want), "step {step}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut s = MultiTagScene::new(
                cfg(),
                vec![Point::new(-0.1, 0.0), Point::new(-0.2, 0.1)],
                &SimRng::new(6),
            );
            s.snapshot(0.0, &[TagState::Reflect, TagState::Absorb], &offsets())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.h, b.h);
    }
}
