//! A raw identifier names its wire key without the `r#`, as in upstream
//! serde: `r#final` serializes under `"final"` and reads back from it.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Report {
    r#type: String,
    r#final: u32,
    plain: bool,
}

#[allow(non_camel_case_types)]
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Step {
    r#loop,
    r#move { r#in: u32 },
}

#[test]
fn raw_identifiers_round_trip_under_their_bare_names() {
    let report = Report { r#type: "sim".into(), r#final: 7, plain: true };
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(json, r#"{"type":"sim","final":7,"plain":true}"#);
    assert_eq!(serde_json::from_str::<Report>(&json).unwrap(), report);

    let steps = vec![Step::r#loop, Step::r#move { r#in: 3 }];
    let json = serde_json::to_string(&steps).unwrap();
    assert_eq!(json, r#"["loop",{"move":{"in":3}}]"#);
    assert_eq!(serde_json::from_str::<Vec<Step>>(&json).unwrap(), steps);
}
