package repro.distributed

import repro.SparkSpec
import repro.core.Eve
import repro.data.GraphGen

class QueryRunnerSpec extends SparkSpec {

  test("batch results match a sequential loop") {
    val g  = GraphGen.dataset("tw").build()
    val k  = 5
    val qs = GraphGen.queries(g, k, 8, seed = 77)
    val r  = QueryRunner.run(spark, g, qs, k, SpgAlgo.EveAlgo(), timeoutMs = 30000)
    assert(r.outcomes.size == qs.size)
    assert(r.timeouts == 0)
    val expected = qs.map { case (s, t) => Eve.spg(g, s, t, k).length }
    assert(r.outcomes.sortBy(o => (o.s, o.t)).map(_.edges) ==
      qs.zip(expected).map { case ((s, t), e) => (s, t, e) }.sortBy(x => (x._1, x._2)).map(_._3))
  }

  test("all algorithms agree on batch edge counts") {
    val g  = GraphGen.uniform(200, 800, 4)
    val k  = 5
    val qs = GraphGen.queries(g, k, 6, seed = 3)
    val algos = Seq(SpgAlgo.EveAlgo(), SpgAlgo.JoinAlgo, SpgAlgo.PathEnumAlgo, SpgAlgo.BcDfsAlgo)
    val results = algos.map(a => QueryRunner.run(spark, g, qs, k, a, timeoutMs = 30000))
    val counts = results.map(_.outcomes.sortBy(o => (o.s, o.t)).map(_.edges))
    assert(counts.forall(_ == counts.head),
      s"algorithms disagree: ${algos.map(_.name).zip(counts)}")
  }

  test("timeouts are reported, not thrown") {
    val g  = GraphGen.uniform(300, 4000, 8)
    val qs = GraphGen.queries(g, 8, 3, seed = 1)
    val r  = QueryRunner.run(spark, g, qs, 8, SpgAlgo.BcDfsAlgo, timeoutMs = 0)
    assert(r.timeouts == r.outcomes.count(_.edges == -1))
    assert(r.outcomes.size == 3)
  }

  test("a query that throws fails alone, with its error recorded") {
    val g   = GraphGen.uniform(200, 800, 4)
    val bad = (g.n + 5, 0) // out of range: every algorithm rejects it
    val qs  = GraphGen.queries(g, 5, 6, seed = 3) :+ bad
    for (algo <- Seq(SpgAlgo.EveAlgo(), SpgAlgo.JoinAlgo, SpgAlgo.PathEnumAlgo, SpgAlgo.BcDfsAlgo)) {
      val r = QueryRunner.run(spark, g, qs, 5, algo, timeoutMs = 30000)
      assert(r.outcomes.size == qs.size, algo.name)
      val (failed, ok) = r.outcomes.partition(_.error.isDefined)
      assert(failed.map(o => (o.s, o.t)) == Seq(bad), algo.name)
      assert(failed.head.edges == -1 && !failed.head.timedOut, algo.name)
      assert(failed.head.error.get.contains("out of range"), s"${algo.name}: ${failed.head.error.get}")
      assert(ok.forall(o => o.edges > 0 && !o.timedOut), algo.name)
    }
  }

  test("an empty batch yields an empty result") {
    val g = GraphGen.uniform(50, 150, 4)
    val r = QueryRunner.run(spark, g, Seq.empty, 4, SpgAlgo.EveAlgo(), timeoutMs = 30000)
    assert(r.algo == "EVE" && r.outcomes.isEmpty && r.totalNs == 0)
  }

  test("totals aggregate per-query times") {
    val g  = GraphGen.dataset("tw").build()
    val qs = GraphGen.queries(g, 4, 5, seed = 11)
    val r  = QueryRunner.run(spark, g, qs, 4, SpgAlgo.EveAlgo(), timeoutMs = 30000)
    assert(r.totalNs == r.outcomes.map(_.timeNs).sum)
    assert(r.totalMs > 0)
    assert(!r.anyTimeout)
  }
}
