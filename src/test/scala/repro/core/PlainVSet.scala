package repro.core

/** The plain sorted-set intersection, for tests only: the reference that
  * [[VSet.keepIn]] must agree with.
  */
object PlainVSet {

  /** Sorted intersection of two sorted arrays. */
  def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    var i = 0; var j = 0; var c = 0
    val tmp = new Array[Int](math.min(a.length, b.length))
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { tmp(c) = a(i); c += 1; i += 1; j += 1 }
    }
    if (c == tmp.length) tmp else java.util.Arrays.copyOf(tmp, c)
  }
}
