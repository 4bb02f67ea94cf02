<?php
// Two call sites pass the same source into one sink inside a function:
// two flows, each fixed at its own call.  Keyed by the source alone,
// the second flow hid behind the first, so the correction missed it;
// and since reflected and stored XSS both see the two calls, wrapping
// the first call left reflected XSS on the second and stored XSS on
// the first: two findings where there had been one.
function fn32($p0, $p1) {
    echo $p0;
}
fn32($_COOKIE['q'], $_COOKIE);
fn32($_COOKIE['q'], $_COOKIE);
