package org.apache.spark

/** Lets a test wait for Spark's listener bus to deliver every event posted
  * so far, so that listener counts are complete when read. The bus is
  * private to the `org.apache.spark` package, hence this package.
  */
object SpecListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
