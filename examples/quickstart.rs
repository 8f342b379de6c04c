//! Quickstart: point WFIT at a schema, stream a few statements through it and
//! read the recommendation.
//!
//! Run with `cargo run --example quickstart`.

use wfit::core::{FeedbackStream, TuningSession};
use wfit::{Database, IndexSet, Wfit, WfitConfig};

fn main() {
    // 1. Describe the schema (statistics only — no data is loaded).
    let mut builder = simdb::catalog::CatalogBuilder::new();
    builder
        .table("app.orders")
        .rows(2_000_000.0)
        .column("id", simdb::types::DataType::Integer, 2_000_000.0)
        .column("customer_id", simdb::types::DataType::Integer, 50_000.0)
        .column_with_range(
            "total",
            simdb::types::DataType::Decimal,
            500_000.0,
            1.0,
            10_000.0,
        )
        .column("status", simdb::types::DataType::Integer, 6.0)
        .finish();
    builder
        .table("app.customers")
        .rows(50_000.0)
        .column("customer_id", simdb::types::DataType::Integer, 50_000.0)
        .column("region", simdb::types::DataType::Integer, 12.0)
        .finish();
    let db = Database::new(builder.build());

    // 2. Create the semi-automatic tuner, in a session that adopts its
    //    recommendations and adds up the work done.
    let tuner = Wfit::new(&db, WfitConfig::default());
    let mut session = TuningSession::new(&db, tuner);

    // 3. Stream the workload through it (here: the same lookup repeated, plus
    //    a join and an update).
    let workload = [
        db.parse("SELECT total FROM app.orders WHERE customer_id = 4711")
            .unwrap(),
        db.parse("SELECT total FROM app.orders WHERE customer_id = 42")
            .unwrap(),
        db.parse(
            "SELECT count(*) FROM app.orders, app.customers \
             WHERE orders.customer_id = customers.customer_id AND region = 3 AND total > 9000",
        )
        .unwrap(),
        db.parse("UPDATE app.orders SET status = 2 WHERE total BETWEEN 100 AND 110")
            .unwrap(),
    ];
    let mut repeated = Vec::new();
    for _ in 0..5 {
        repeated.extend(workload.iter().cloned());
    }

    session.replay(&repeated, &FeedbackStream::empty());

    // 4. Inspect the recommendation.
    let recommendation = session.recommendation();
    let total_work = session.stats().total_work;
    println!("analyzed {} statements", session.stats().queries);
    println!("total work (optimizer cost units): {total_work:.0}");
    println!("recommended indices:");
    for idx in recommendation.iter() {
        println!("  + {}", db.index_name(idx));
    }

    // Compare with doing nothing.
    let no_index_cost: f64 = repeated
        .iter()
        .map(|q| db.cost(q, &IndexSet::empty()))
        .sum();
    println!(
        "workload cost without any index: {:.0}  (WFIT saved {:.0}%)",
        no_index_cost,
        100.0 * (1.0 - total_work / no_index_cost)
    );
}
