package repro

class SynthDataSpec extends SparkSpec {

  test("graphEdges: no self loops, no duplicates, ids in range") {
    val df = SynthData.graphEdges(spark, n = 100, m = 300, seed = 1).cache()
    val rows = df.collect()
    assert(rows.length <= 300 && rows.length > 250)
    assert(rows.forall(r => r.getLong(0) != r.getLong(1)))
    assert(rows.forall(r => r.getLong(0) >= 0 && r.getLong(0) < 100))
    assert(df.dropDuplicates("src", "dst").count() == rows.length)
  }

  test("graphEdges is deterministic in the seed") {
    val a = SynthData.graphEdges(spark, 50, 120, seed = 9).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = SynthData.graphEdges(spark, 50, 120, seed = 9).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b)
  }
}
