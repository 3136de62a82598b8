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

  test("REPRO_TIMEOUT_MS defaults to 2000 and must be an integer >= 1") {
    assert(BenchUtil.timeoutMs(None) == 2000L)
    assert(BenchUtil.timeoutMs(Some("500")) == 500L)
    assert(BenchUtil.timeoutMs(Some("1")) == 1L)
    for (bad <- Seq("0", "-5", "2s", "")) {
      val e = intercept[IllegalArgumentException](BenchUtil.timeoutMs(Some(bad)))
      assert(e.getMessage.contains("REPRO_TIMEOUT_MS"), bad)
    }
  }

  test("REPRO_FULL defaults to the short lists and must be 0 or 1") {
    assert(!BenchUtil.full(None))
    assert(!BenchUtil.full(Some("0")))
    assert(BenchUtil.full(Some("1")))
    for (bad <- Seq("true", "yes", " 1", "2", "")) {
      val e = intercept[IllegalArgumentException](BenchUtil.full(Some(bad)))
      assert(e.getMessage.contains("REPRO_FULL"), bad)
    }
  }
}
