<?php
// The OS-command sink's argument contains the call whose argument the
// XSS fix wraps.  Wrapped first, the inner fix changed the outer target
// so the outer fix no longer found it; the outer wrap now goes first.
function fn502($p0, $p1) {
    echo $p0;
    return $p0;
}
exec(fn502($_COOKIE['page'], $v1));
