//! The label corpus of the scaling gate (`tests/lookup_scaling.rs`),
//! shared with the candidate-table oracle tests in `src/candidates.rs`,
//! which include this file by path.

const FIRST: [&str; 20] = [
    "tom", "peyton", "eli", "aaron", "patrick", "johnny", "maria", "paris", "london", "austin",
    "yellow", "purple", "golden", "silver", "crimson", "abbey", "penny", "norwegian", "lucy", "jude",
];
const LAST: [&str; 25] = [
    "brady", "manning", "rodgers", "mahomes", "unitas", "submarine", "road", "lane", "wood",
    "fields", "springs", "heights", "falls", "city", "creek", "song", "anthem", "ballad", "hymn",
    "march", "texas", "ohio", "kansas", "dakota", "maine",
];
const QUALIFIER: [&str; 5] = ["(Remastered)", "(Live)", "(1968)", "[Demo]", "(Texas)"];

/// `size` labels over 500 name pairs with numeric volume suffixes; every
/// seventh label gains a bracketed qualifier. All sizes share the same
/// token shape so counter curves compare like for like.
pub fn scaling_labels(size: usize) -> Vec<String> {
    let mut labels = Vec::with_capacity(size);
    let per_pair = size.div_ceil(FIRST.len() * LAST.len());
    let mut n = 0u64;
    'outer: for f in FIRST {
        for l in LAST {
            for suffix in 0..per_pair as u64 {
                let mut label = if suffix == 0 {
                    format!("{f} {l}")
                } else {
                    format!("{f} {l} {suffix}")
                };
                if n % 7 == 3 {
                    label = format!("{label} {}", QUALIFIER[(n % 5) as usize]);
                }
                labels.push(label);
                n += 1;
                if labels.len() == size {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(labels.len(), size, "label pool exhausted early");
    labels
}
