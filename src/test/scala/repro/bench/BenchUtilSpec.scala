package repro.bench

import org.scalatest.funsuite.AnyFunSuite

class BenchUtilSpec extends AnyFunSuite {

  test("REPRO_QUERIES defaults to 12 and must be an integer >= 1") {
    assert(BenchUtil.queriesPerPoint(None) == 12)
    assert(BenchUtil.queriesPerPoint(Some("25")) == 25)
    for (bad <- Seq("0", "-3", "ten", "")) {
      val e = intercept[IllegalArgumentException](BenchUtil.queriesPerPoint(Some(bad)))
      assert(e.getMessage.contains("REPRO_QUERIES"), bad)
    }
  }
}
